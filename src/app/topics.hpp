// TopicMux — topic-based multiplexing of the atomic broadcast facade.
//
// Several independent clients (the group-membership protocol, the replicated
// state machine, application probes) share one totally-ordered channel.  The
// mux wraps payloads with a topic header and dispatches deliveries to topic
// subscribers, preserving the global total order within and across topics.
//
// Deliveries for topics with no subscriber yet are buffered (bounded) and
// replayed on subscription, in order — the same late-joiner treatment as the
// transport layers.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "abcast/abcast.hpp"
#include "core/module.hpp"
#include "core/stack.hpp"

namespace dpu {

inline constexpr char kTopicsService[] = "topics";

using TopicHandler = std::function<void(NodeId sender, const Bytes& payload)>;

struct TopicsApi {
  virtual ~TopicsApi() = default;
  /// Publishes `payload` on `topic` with uniform total order.  Payload
  /// (shared immutable buffer) so serializing callers hand wire bytes
  /// down copy-free; Bytes converts implicitly.
  virtual void publish(const std::string& topic, Payload payload) = 0;
  virtual void subscribe(const std::string& topic, TopicHandler handler) = 0;
  virtual void unsubscribe(const std::string& topic) = 0;
};

struct TopicMuxConfig {
  std::size_t max_pending_per_topic = 100'000;
};

class TopicMuxModule final : public Module,
                             public TopicsApi,
                             public AbcastListener {
 public:
  using Config = TopicMuxConfig;

  static constexpr char kProtocolName[] = "app.topics";

  /// Creates the mux over the `abcast` facade and binds it to `service`.
  static TopicMuxModule* create(Stack& stack,
                                const std::string& service = kTopicsService,
                                Config config = Config{});

  /// Registers "app.topics": requires abcast.
  static void register_protocol(ProtocolLibrary& library,
                                Config config = Config{});

  TopicMuxModule(Stack& stack, std::string instance_name, Config config);

  void start() override;
  void stop() override;

  // TopicsApi
  void publish(const std::string& topic, Payload payload) override;
  void subscribe(const std::string& topic, TopicHandler handler) override;
  void unsubscribe(const std::string& topic) override;

  // AbcastListener (facade deliveries)
  void adeliver(NodeId sender, const Bytes& payload) override;

  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  /// Abcast deliveries that were not topic frames (other clients' traffic).
  [[nodiscard]] std::uint64_t non_topic_ignored() const {
    return non_topic_ignored_;
  }

 private:
  Config config_;
  ServiceRef<AbcastApi> abcast_;
  std::map<std::string, TopicHandler> subscribers_;
  std::map<std::string, std::deque<std::pair<NodeId, Bytes>>> pending_;
  std::uint64_t published_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t non_topic_ignored_ = 0;
};

}  // namespace dpu
