#include "app/topics.hpp"

#include "util/log.hpp"

namespace dpu {

TopicMuxModule* TopicMuxModule::create(Stack& stack, const std::string& service,
                                       Config config) {
  auto* m = stack.emplace_module<TopicMuxModule>(stack, service, config);
  stack.bind<TopicsApi>(service, m, m);
  return m;
}

void TopicMuxModule::register_protocol(ProtocolLibrary& library,
                                       Config config) {
  library.register_protocol(ProtocolInfo{
      .protocol = kProtocolName,
      .default_service = kTopicsService,
      .requires_services = {kAbcastService},
      .factory = [config](Stack& stack, const std::string& provide_as,
                          const ModuleParams&) -> Module* {
        return create(stack, provide_as, config);
      }});
}

TopicMuxModule::TopicMuxModule(Stack& stack, std::string instance_name,
                               Config config)
    : Module(stack, std::move(instance_name)),
      config_(config),
      abcast_(stack.require<AbcastApi>(kAbcastService)) {}

void TopicMuxModule::start() {
  stack().listen<AbcastListener>(kAbcastService, this, this);
}

void TopicMuxModule::stop() {
  stack().unlisten<AbcastListener>(kAbcastService, this);
  subscribers_.clear();
  pending_.clear();
}

void TopicMuxModule::publish(const std::string& topic, Payload payload) {
  BufWriter w(topic.size() + payload.size() + 8);
  w.put_string(topic);
  w.put_blob(payload);
  ++published_;
  abcast_.call([bytes = w.take_payload()](AbcastApi& api) mutable {
    api.abcast(std::move(bytes));
  });
}

void TopicMuxModule::subscribe(const std::string& topic, TopicHandler handler) {
  subscribers_[topic] = std::move(handler);
  auto it = pending_.find(topic);
  if (it == pending_.end()) return;
  auto queued = std::move(it->second);
  pending_.erase(it);
  for (auto& [sender, payload] : queued) {
    ++dispatched_;
    subscribers_[topic](sender, payload);
  }
}

void TopicMuxModule::unsubscribe(const std::string& topic) {
  subscribers_.erase(topic);
}

void TopicMuxModule::adeliver(NodeId sender, const Bytes& payload) {
  std::string topic;
  Bytes inner;
  try {
    BufReader r(payload);
    topic = r.get_string();
    inner = r.get_blob();
    r.expect_done();
  } catch (const CodecError&) {
    // Other abcast clients (the workload itself) share the facade: their
    // messages are not topic frames, and are counted, not logged.
    ++non_topic_ignored_;
    return;
  }
  auto it = subscribers_.find(topic);
  if (it == subscribers_.end()) {
    auto& queue = pending_[topic];
    if (queue.size() >= config_.max_pending_per_topic) {
      DPU_LOG(kWarn, "topics") << "s" << env().node_id()
                               << " pending overflow on topic " << topic;
      return;
    }
    queue.emplace_back(sender, inner);
    return;
  }
  ++dispatched_;
  it->second(sender, inner);
}

}  // namespace dpu
