// Real-time engine: one OS thread per protocol stack.
//
// The same protocol modules that run deterministically in dpu::sim run here
// under real concurrency (DESIGN.md §2): each stack owns a thread, an event
// queue and a timer heap; packets travel either through lock-protected
// in-process queues or through real POSIX UDP sockets on the loopback
// device (the paper's transport).  On Linux the socket path amortizes
// syscalls: outbound datagrams stage on a per-host queue flushed with one
// sendmmsg() per event-loop iteration (after the iteration's turn-end
// callbacks, HostEnv::at_turn_end), and the receiver drains up to a
// whole burst per recvmmsg() call, posting it to the stack thread as one
// closure — so syscall and wakeup counts scale with bursts, not messages.
//
// The engine implements the full WorldControl surface (runtime/world.hpp),
// so scenario campaigns run here unchanged: scheduled control events
// (at/at_node, executed by the thread driving run()), crash and
// crash-recovery fault injection, link filters and loss/duplication
// injection, directional per-link faults with extra latency, and
// packet counters.  Unlike the simulator, nothing here is byte-
// deterministic — rt runs are audited for protocol properties, not for
// reproducible output.
//
// Concurrency contract (Core Guidelines CP.2/CP.3): all interaction with a
// stack's modules happens on that stack's thread.  External drivers use
// post_to()/call_on() to marshal closures onto it; cross-thread state
// (queues, the crash flag, counters, the fault model) is mutex- or
// atomic-protected, and protocol code itself stays lock-free exactly as in
// the simulator.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/stack.hpp"
#include "core/trace.hpp"
#include "rt/delay_wheel.hpp"
#include "runtime/host.hpp"
#include "runtime/world.hpp"

namespace dpu {

enum class RtTransport {
  kInproc,      ///< lock-protected queues between threads
  kUdpSockets,  ///< real UDP datagrams over 127.0.0.1
};

/// One node's real UDP endpoint (agent mode; see RtConfig::peers).
struct RtPeer {
  std::string host;  ///< IPv4 dotted quad, e.g. "127.0.0.1"
  std::uint16_t port = 0;
};

struct RtConfig {
  std::size_t num_stacks = 3;
  std::uint64_t seed = 1;
  RtTransport transport = RtTransport::kInproc;
  /// First UDP port for transport kUdpSockets (stack i uses base+i).
  std::uint16_t udp_base_port = 37900;
  /// In-proc transport fault injection (0 = reliable).
  double drop_probability = 0.0;
  /// In-proc transport duplication injection (0 = none).
  double duplicate_probability = 0.0;

  // ---- Agent mode (process-per-node cluster runner, src/cluster) ----------
  /// When != kNoNode, this process hosts exactly one stack — `local_node` —
  /// and the world holds null slots for every other id (size() still
  /// reports the full num_stacks, which is what modules ask for).  Implies
  /// kUdpSockets; outbound datagrams resolve through `peers`, and the
  /// fault model is applied on the *receive* path (the supervisor installs
  /// it per-agent over the control channel — egress emits everything).
  NodeId local_node = kNoNode;
  /// Real endpoint per node id, size num_stacks (agent mode only).
  std::vector<RtPeer> peers;
  /// Incarnation stamp for the local host at boot: 0 for a first spawn,
  /// the supervisor's global counter value for a respawn — mirroring what
  /// recover() stamps in-process, so rp2p epoch adoption works unchanged.
  std::uint32_t initial_incarnation = 0;
  /// Shared campaign timebase: CLOCK_MONOTONIC nanoseconds at which world
  /// time 0 falls.  CLOCK_MONOTONIC is machine-wide on Linux, so every
  /// agent passed the same value reports directly comparable now()s
  /// (negative before the epoch, which is harmless).  0 = epoch at
  /// construction (the in-process default).
  std::int64_t epoch_ns = 0;
};

class RtWorld final : public WorldControl {
 public:
  explicit RtWorld(RtConfig config, const ProtocolLibrary* library = nullptr,
                   TraceSink* trace = nullptr);
  ~RtWorld() override;

  RtWorld(const RtWorld&) = delete;
  RtWorld& operator=(const RtWorld&) = delete;

  [[nodiscard]] std::size_t size() const override { return hosts_.size(); }
  [[nodiscard]] Stack& stack(NodeId node) override { return *stacks_[node]; }

  /// Monotonic time since world construction; the same clock every host's
  /// HostEnv::now() reports, so driver schedules and in-stack timestamps
  /// are directly comparable.
  [[nodiscard]] TimePoint now() const override;

  /// Starts every stack thread.  Composition (module creation) must happen
  /// either before start() or via post_to()/call_on() afterwards.
  void start();

  /// Stops and joins all threads.  Idempotent; called by the destructor.
  void stop();

  /// Schedules `fn` on `node`'s thread (fire and forget).
  void post_to(NodeId node, std::function<void()> fn);

  /// Runs `fn` on `node`'s thread and waits for completion.
  void call_on(NodeId node, std::function<void()> fn);

  // ---- WorldControl: scheduled control events -------------------------------

  /// Best-effort scheduled driver event: executed by the thread inside
  /// run() when `now() >= t`, subject to scheduler jitter.  Must be called
  /// before run().
  void at(TimePoint t, std::function<void()> fn) override;

  /// Best-effort scheduled closure on `node`'s thread (posted at `t`).
  /// Must be called before run().
  void at_node(TimePoint t, NodeId node, std::function<void()> fn) override;

  void run_on_node(NodeId node, std::function<void()> fn) override {
    call_on(node, std::move(fn));
  }

  // ---- WorldControl: fault injection ---------------------------------------

  /// Crash-stop fault injection: the stack's thread stops processing and
  /// packets to it are dropped.  Crash-stop until recover().
  void crash(NodeId node) override;

  /// Joins a crashed stack's threads so the control thread can read its
  /// module state without racing the dying loop thread's final writes.
  void quiesce_node(NodeId node) override;

  /// Crash-recovery: joins the crashed stack's threads, resets the host
  /// (incarnation bumped, queue/timers cleared, RNG reseeded), replaces the
  /// Stack object and restarts the threads.  Call from the control thread
  /// (an at() closure or between run()s); compose modules afterwards via
  /// run_on_node.
  void recover(NodeId node) override;

  [[nodiscard]] bool crashed(NodeId node) const override;
  [[nodiscard]] std::set<NodeId> crashed_set() const override;

  void set_link_filter(
      std::function<bool(NodeId, NodeId)> deliverable) override;
  void set_loss(double drop_probability,
                double duplicate_probability) override;
  void set_link_fault(NodeId src, NodeId dst,
                      std::optional<LinkFault> fault) override;

  // ---- WorldControl: execution ---------------------------------------------

  /// Drives the world wall-clock: starts the stacks (if not yet started),
  /// fires scheduled control events until `active_until`, then polls
  /// `quiesced` (every ~100 ms, from this thread) and returns at the first
  /// true or at `deadline` — whichever comes first.  Without a `quiesced`
  /// callback the drain is capped at 2 s past `active_until`.  Stops and
  /// joins all stack threads before returning, so the caller may harvest
  /// module state without racing.  Always returns true (`max_events` is a
  /// simulator concept).
  bool run(TimePoint active_until, TimePoint deadline,
           std::uint64_t max_events,
           const std::function<bool()>& quiesced = nullptr) override;

  [[nodiscard]] std::uint64_t packets_sent() const override {
    return packets_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t packets_dropped() const override {
    return packets_dropped_.load(std::memory_order_relaxed);
  }

  // Socket-transport syscall amortization counters (kUdpSockets only):
  // datagrams staged per sendmmsg/recvmmsg call.  datagrams/syscalls is the
  // achieved amortization factor; on non-Linux builds the fallback path
  // reports 1:1.  Benches read these to show syscall count no longer
  // scaling with message count.
  [[nodiscard]] std::uint64_t socket_tx_syscalls() const {
    return socket_tx_syscalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t socket_tx_datagrams() const {
    return socket_tx_datagrams_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t socket_rx_syscalls() const {
    return socket_rx_syscalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t socket_rx_datagrams() const {
    return socket_rx_datagrams_.load(std::memory_order_relaxed);
  }
  /// Datagrams the kernel refused (sendto/sendmmsg error).  They are lost
  /// like a dropped UDP datagram and do not count in socket_tx_datagrams.
  [[nodiscard]] std::uint64_t socket_tx_failures() const {
    return socket_tx_failures_.load(std::memory_order_relaxed);
  }

  /// Agent mode: this process hosts only config.local_node's stack.
  [[nodiscard]] bool agent_mode() const {
    return config_.local_node != kNoNode;
  }

 private:
  class RtHost;
  friend class RtHost;

  void route_packet(NodeId src, NodeId dst, Payload data);

  /// One receive-path fault verdict (agent mode): the same model
  /// route_packet applies at egress in-process, applied at ingress here
  /// because a real remote sender cannot consult this process's faults.
  struct IngressDecision {
    bool drop = false;
    int copies = 1;
    Duration extra_latency = 0;
  };
  [[nodiscard]] IngressDecision ingress_decision(NodeId src, NodeId dst);

  /// Destination address of `dst`'s socket: the peer table in agent mode,
  /// loopback base+dst otherwise.
  [[nodiscard]] sockaddr_in peer_sockaddr(NodeId dst) const;

  RtConfig config_;
  const ProtocolLibrary* library_ = nullptr;  // kept for recover()
  TraceSink* trace_ = nullptr;                // kept for recover()
  /// Resolved config_.peers (agent mode; empty otherwise).
  std::vector<sockaddr_in> peer_addrs_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<RtHost>> hosts_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  bool started_ = false;
  /// World-global incarnation stamp for the next recovery (control thread
  /// only; see recover()).
  std::uint32_t next_incarnation_ = 1;

  struct ControlEvent {
    TimePoint at = 0;
    NodeId node = kNoNode;  // kNoNode: driver closure; else posted to node
    std::function<void()> fn;
  };
  std::vector<ControlEvent> schedule_;  // driver thread only, pre-run

  /// Cross-thread fault model (senders route concurrently with the control
  /// thread mutating this).  A plain mutex: scenario-scale packet rates are
  /// thousands/sec, far below contention territory.
  struct FaultModel {
    std::function<bool(NodeId, NodeId)> link_filter;
    double drop = 0.0;
    double duplicate = 0.0;
    LinkFaultTable link_faults;
  };
  mutable std::mutex fault_mutex_;
  FaultModel faults_;
  /// Dedicated thread for slow-link delay injection (see delay_wheel.hpp).
  /// Created by set_link_fault before the first extra_latency fault becomes
  /// visible; senders reach it only after observing such a fault under
  /// fault_mutex_, so the pointer read is ordered.  Joined in ~RtWorld.
  std::unique_ptr<DelayWheel> wheel_;

  void note_socket_tx(std::uint64_t syscalls, std::uint64_t datagrams) {
    socket_tx_syscalls_.fetch_add(syscalls, std::memory_order_relaxed);
    socket_tx_datagrams_.fetch_add(datagrams, std::memory_order_relaxed);
  }
  void note_socket_tx_failure() {
    socket_tx_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_socket_rx(std::uint64_t syscalls, std::uint64_t datagrams) {
    socket_rx_syscalls_.fetch_add(syscalls, std::memory_order_relaxed);
    socket_rx_datagrams_.fetch_add(datagrams, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> packets_sent_{0};
  std::atomic<std::uint64_t> packets_dropped_{0};
  std::atomic<std::uint64_t> socket_tx_syscalls_{0};
  std::atomic<std::uint64_t> socket_tx_datagrams_{0};
  std::atomic<std::uint64_t> socket_rx_syscalls_{0};
  std::atomic<std::uint64_t> socket_rx_datagrams_{0};
  std::atomic<std::uint64_t> socket_tx_failures_{0};
};

}  // namespace dpu
