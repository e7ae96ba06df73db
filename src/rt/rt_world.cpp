#include "rt/rt_world.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <utility>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace dpu {

namespace {
using SteadyClock = std::chrono::steady_clock;
}  // namespace

// ---------------------------------------------------------------------------
// RtHost — HostEnv implementation: one thread, one event queue, one timer
// heap, optionally one UDP socket.
// ---------------------------------------------------------------------------

class RtWorld::RtHost final : public HostEnv {
 public:
  RtHost(RtWorld& world, NodeId node, std::uint64_t seed)
      : world_(&world),
        node_(node),
        seed_(seed),
        rng_(Rng::substream(seed, node)),
        epoch_(SteadyClock::now()) {}

  ~RtHost() override { stop_and_join(); }

  // ---- HostEnv --------------------------------------------------------------

  [[nodiscard]] NodeId node_id() const override { return node_; }
  [[nodiscard]] std::size_t world_size() const override {
    return world_->hosts_.size();
  }

  [[nodiscard]] TimePoint now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - epoch_)
        .count();
  }

  TimerId set_timer(Duration after, std::function<void()> cb) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const TimerId id = ++next_timer_id_;
    timers_.emplace(now() + std::max<Duration>(after, 0),
                    TimerEntry{id, std::move(cb)});
    live_timers_.insert(id);
    cv_.notify_all();
    return id;
  }

  void cancel_timer(TimerId id) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    live_timers_.erase(id);
  }

  // Turn-end callbacks are requested and run on the loop thread only (or,
  // like module composition, while the loop is not running), so the queue
  // needs no lock.
  TurnEndId at_turn_end(std::function<void()> fn) override {
    return turn_end_.add(std::move(fn));
  }

  void cancel_turn_end(TurnEndId id) override { turn_end_.cancel(id); }

  void send_packet(NodeId dst, Payload data) override {
    world_->route_packet(node_, dst, std::move(data));
  }

  void post(std::function<void()> fn) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
    cv_.notify_all();
  }

  [[nodiscard]] Rng& rng() override { return rng_; }

  void charge(Duration /*cost*/) override {
    // Real cycles are already spent; nothing to model.
  }

  [[nodiscard]] bool crashed() const override {
    return crashed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t incarnation() const override {
    return incarnation_.load(std::memory_order_relaxed);
  }

  void set_packet_handler(
      std::function<void(NodeId, const Payload&)> handler) override {
    // Called from this stack's thread (module start/stop); handler is only
    // read from this thread as well.
    packet_handler_ = std::move(handler);
  }

  // ---- Engine side -----------------------------------------------------------

  void set_epoch(SteadyClock::time_point epoch) { epoch_ = epoch; }

  // The Payload's refcount is atomic, so handing it from the sender's
  // thread to this stack's thread needs no extra synchronization beyond the
  // queue mutex post() already takes.
  void enqueue_packet(NodeId src, Payload data) {
    if (crashed()) return;
    post([this, src, payload = std::move(data)]() {
      if (packet_handler_) packet_handler_(src, payload);
    });
  }

  void open_socket(std::uint16_t port, bool any_addr = false) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throw std::runtime_error("rt: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(any_addr ? INADDR_ANY : INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("rt: bind() failed on port " +
                               std::to_string(port));
    }
    // Receive timeout so the receiver thread can observe shutdown.
    timeval tv{0, 50'000};  // 50ms
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// Puts one datagram on the wire.  While the stack threads run, the
  /// datagram is staged on the host's tx queue and flushed — together with
  /// everything else the current event-loop iteration produced — by one
  /// sendmmsg() call; before start()/after stop() it goes out inline.
  void socket_send(const sockaddr_in& dst, const Bytes& data) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (running_.load()) {
        tx_queue_.push_back(TxDatagram{dst, data});
        cv_.notify_all();  // wake the loop thread to flush
        return;
      }
    }
    send_now(dst, data);
  }

  void start_threads(bool with_receiver, std::uint16_t base_port) {
    running_.store(true);
    loop_thread_ = std::thread([this]() { run_loop(); });
    if (with_receiver) {
      receiver_thread_ = std::thread([this, base_port]() {
        run_receiver(base_port);
      });
    }
  }

  void stop_and_join() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!running_.exchange(false)) return;
      cv_.notify_all();
    }
    if (loop_thread_.joinable()) loop_thread_.join();
    if (receiver_thread_.joinable()) receiver_thread_.join();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void mark_crashed() {
    crashed_.store(true, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }

  /// Crash-recovery reset.  Callable only with the stack's threads joined
  /// (stop_and_join) and its Stack destroyed: clears everything of the old
  /// incarnation, bumps the incarnation counter and reseeds the RNG on an
  /// incarnation substream.  The host object itself survives — senders keep
  /// routing through stable host pointers, so route_packet needs no lock
  /// around the host table.
  void reset_for_recovery(std::uint32_t incarnation) {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.clear();
    tx_queue_.clear();
    timers_.clear();
    live_timers_.clear();
    turn_end_.clear();
    packet_handler_ = nullptr;
    incarnation_.store(incarnation, std::memory_order_relaxed);
    rng_ = Rng::substream(seed_,
                          incarnation_rng_substream(node_, incarnation));
    crashed_.store(false, std::memory_order_relaxed);
  }

  /// Agent-mode boot stamp: a respawned process starts life at the
  /// incarnation the supervisor assigned, with the same RNG substream a
  /// same-numbered in-process recovery would use.  Call before start.
  void set_initial_incarnation(std::uint32_t incarnation) {
    incarnation_.store(incarnation, std::memory_order_relaxed);
    if (incarnation > 0) {
      rng_ = Rng::substream(seed_,
                            incarnation_rng_substream(node_, incarnation));
    }
  }

 private:
  struct TimerEntry {
    TimerId id;
    std::function<void()> cb;
  };

  struct TxDatagram {
    sockaddr_in addr;
    Bytes data;
  };

  void send_now(const sockaddr_in& addr, const Bytes& data) {
    const ssize_t sent =
        ::sendto(fd_, data.data(), data.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    world_->note_socket_tx(1, sent >= 0 ? 1 : 0);
    if (sent < 0) world_->note_socket_tx_failure();
  }

  /// Drains the staged tx queue with as few syscalls as the platform
  /// allows.  Runs on the loop thread (and once more on loop exit) with
  /// mutex_ released.  A datagram the kernel refuses gets UDP loss
  /// semantics: it is counted as a failure and skipped, and the rest of
  /// the batch still goes out.
  void flush_socket_tx() {
    std::vector<TxDatagram> batch;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (tx_queue_.empty()) return;
      batch.swap(tx_queue_);
    }
    if (fd_ < 0) return;
#if defined(__linux__)
    constexpr std::size_t kChunk = 64;  // well under the UIO_MAXIOV cap
    std::array<sockaddr_in, kChunk> addrs{};
    std::array<iovec, kChunk> iovs{};
    std::array<mmsghdr, kChunk> msgs{};
    for (std::size_t base = 0; base < batch.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, batch.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        TxDatagram& d = batch[base + i];
        addrs[i] = d.addr;
        iovs[i].iov_base = d.data.data();
        iovs[i].iov_len = d.data.size();
        msgs[i].msg_hdr = msghdr{};
        msgs[i].msg_hdr.msg_name = &addrs[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      std::size_t done = 0;
      while (done < n) {
        const int sent = ::sendmmsg(fd_, msgs.data() + done,
                                    static_cast<unsigned>(n - done), 0);
        world_->note_socket_tx(1, sent > 0 ? sent : 0);
        if (sent > 0) {
          done += static_cast<std::size_t>(sent);
        } else {
          // sendmmsg reports an error only for the first datagram it
          // could not send.
          world_->note_socket_tx_failure();
          ++done;
        }
      }
    }
#else
    for (const TxDatagram& d : batch) send_now(d.addr, d.data);
#endif
  }

  void run_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (running_.load() && !crashed()) {
      // Fire due timers.
      const TimePoint t = now();
      while (!timers_.empty() && timers_.begin()->first <= t) {
        auto node = timers_.extract(timers_.begin());
        TimerEntry& entry = node.mapped();
        const bool live = live_timers_.erase(entry.id) > 0;
        if (!live) continue;
        lock.unlock();
        entry.cb();
        lock.lock();
      }
      // Drain posted events.
      while (!queue_.empty()) {
        auto fn = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        fn();
        lock.lock();
        if (!running_.load() || crashed()) break;
      }
      if (!running_.load() || crashed()) break;
      // End of the turn: what the callbacks parked for it (rp2p batches)
      // joins this iteration's sendmmsg.
      if (!turn_end_.empty()) {
        lock.unlock();
        turn_end_.run();
        lock.lock();
      }
      // Everything this iteration's callbacks put on the wire goes out in
      // one sendmmsg before the loop sleeps.
      if (!tx_queue_.empty()) {
        lock.unlock();
        flush_socket_tx();
        lock.lock();
        continue;  // re-check timers/queue: the flush took real time
      }
      if (!queue_.empty()) continue;  // posted by a turn-end callback
      // Sleep until the next timer or a new event.
      if (timers_.empty()) {
        cv_.wait(lock);
      } else {
        const Duration until = timers_.begin()->first - now();
        if (until > 0) {
          cv_.wait_for(lock, std::chrono::nanoseconds(until));
        }
      }
    }
    // Clean exit: do not strand the last turn's output or staged datagrams
    // (the tail of a drain — final acks and the like).  Crash exits fall
    // through without this.
    lock.unlock();
    if (!crashed()) {
      turn_end_.run();
      flush_socket_tx();
    }
  }

  /// Decodes the 4-byte source-id prefix (see RtWorld::route_packet) and
  /// hands the body to the stack; returns false for runt datagrams.
  static bool parse_framed(const std::uint8_t* buf, std::size_t n,
                           NodeId& src, Payload& body) {
    if (n < 4) return false;  // below the src-id header
    src = (static_cast<NodeId>(buf[0]) << 24) |
          (static_cast<NodeId>(buf[1]) << 16) |
          (static_cast<NodeId>(buf[2]) << 8) | static_cast<NodeId>(buf[3]);
    body = Payload(std::span<const std::uint8_t>(buf + 4, n - 4));
    return true;
  }

#if defined(__linux__)
  void run_receiver(std::uint16_t /*base_port*/) {
    // Drain up to a whole burst per recvmmsg call and post it to the loop
    // thread as one closure: one syscall and one lock/notify round per
    // burst instead of per datagram.  MSG_WAITFORONE keeps the blocking
    // semantics (and the SO_RCVTIMEO shutdown poll) of plain recvfrom.
    constexpr std::size_t kRxBatch = 16;
    std::vector<std::vector<std::uint8_t>> bufs(
        kRxBatch, std::vector<std::uint8_t>(65536));
    std::array<sockaddr_in, kRxBatch> from{};
    std::array<iovec, kRxBatch> iovs{};
    std::array<mmsghdr, kRxBatch> msgs{};
    while (running_.load() && !crashed()) {
      for (std::size_t i = 0; i < kRxBatch; ++i) {
        iovs[i].iov_base = bufs[i].data();
        iovs[i].iov_len = bufs[i].size();
        msgs[i].msg_hdr = msghdr{};
        msgs[i].msg_hdr.msg_name = &from[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(from[i]);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(fd_, msgs.data(), kRxBatch, MSG_WAITFORONE,
                               nullptr);
      if (n <= 0) continue;  // timeout; recheck running flag
      world_->note_socket_rx(1, static_cast<std::uint64_t>(n));
      std::vector<std::pair<NodeId, Payload>> burst;
      burst.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        NodeId src = kNoNode;
        Payload body;
        if (parse_framed(bufs[static_cast<std::size_t>(i)].data(),
                         msgs[static_cast<std::size_t>(i)].msg_len, src,
                         body)) {
          ingress(src, std::move(body), burst);
        }
      }
      enqueue_packet_burst(std::move(burst));
    }
  }
#else
  void run_receiver(std::uint16_t /*base_port*/) {
    std::vector<std::uint8_t> buf(65536);
    while (running_.load() && !crashed()) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t n =
          ::recvfrom(fd_, buf.data(), buf.size(), 0,
                     reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n < 0) continue;  // timeout; recheck running flag
      world_->note_socket_rx(1, 1);
      NodeId src = kNoNode;
      Payload body;
      if (!parse_framed(buf.data(), static_cast<std::size_t>(n), src, body)) {
        continue;
      }
      std::vector<std::pair<NodeId, Payload>> burst;
      ingress(src, std::move(body), burst);
      enqueue_packet_burst(std::move(burst));
    }
  }
#endif

  /// Receive-path fault gate.  In-process worlds already applied the fault
  /// model at egress (route_packet), so this forwards unconditionally; in
  /// agent mode the supervisor-installed model is consulted here — the
  /// only point this process sees the remote sender's traffic.  Delayed
  /// copies bypass `burst` and ride the delay wheel straight to the queue.
  void ingress(NodeId src, Payload body,
               std::vector<std::pair<NodeId, Payload>>& burst) {
    if (!world_->agent_mode()) {
      burst.emplace_back(src, std::move(body));
      return;
    }
    const IngressDecision d = world_->ingress_decision(src, node_);
    if (d.drop) {
      world_->packets_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (int c = 0; c < d.copies; ++c) {
      if (d.extra_latency > 0) {
        world_->wheel_->schedule(d.extra_latency, [this, src, body]() {
          enqueue_packet(src, body);
        });
      } else {
        burst.emplace_back(src, body);
      }
    }
  }

  /// Posts a whole received burst as one closure (one queue append, one
  /// wakeup); the handler still runs once per datagram on the loop thread.
  void enqueue_packet_burst(std::vector<std::pair<NodeId, Payload>> burst) {
    if (burst.empty() || crashed()) return;
    post([this, burst = std::move(burst)]() {
      for (const auto& [src, payload] : burst) {
        if (packet_handler_) packet_handler_(src, payload);
      }
    });
  }

  RtWorld* world_;
  NodeId node_;
  std::uint64_t seed_;
  Rng rng_;
  SteadyClock::time_point epoch_;
  std::atomic<std::uint32_t> incarnation_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  /// Outbound datagrams staged for the next sendmmsg flush (mutex_).
  std::vector<TxDatagram> tx_queue_;
  std::multimap<TimePoint, TimerEntry> timers_;
  std::unordered_set<TimerId> live_timers_;
  TimerId next_timer_id_ = 0;
  /// Loop thread only (see at_turn_end).
  TurnEndQueue turn_end_;
  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
  std::thread loop_thread_;
  std::thread receiver_thread_;
  std::function<void(NodeId, const Payload&)> packet_handler_;
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// RtWorld
// ---------------------------------------------------------------------------

RtWorld::RtWorld(RtConfig config, const ProtocolLibrary* library,
                 TraceSink* trace)
    : config_(std::move(config)), library_(library), trace_(trace),
      epoch_(SteadyClock::now()) {
  {
    const std::lock_guard<std::mutex> lock(fault_mutex_);
    faults_.drop = config_.drop_probability;
    faults_.duplicate = config_.duplicate_probability;
  }
  if (agent_mode()) {
    // One real stack, full-size tables: modules see the true world size,
    // every other slot stays null.  The transport is necessarily sockets.
    config_.transport = RtTransport::kUdpSockets;
    if (config_.peers.size() != config_.num_stacks) {
      throw std::invalid_argument("rt agent mode: peers must map every node");
    }
    if (config_.local_node >= config_.num_stacks) {
      throw std::invalid_argument("rt agent mode: local_node out of range");
    }
    if (config_.epoch_ns != 0) {
      epoch_ = SteadyClock::time_point(
          std::chrono::duration_cast<SteadyClock::duration>(
              std::chrono::nanoseconds(config_.epoch_ns)));
    }
    peer_addrs_.resize(config_.peers.size());
    for (std::size_t i = 0; i < config_.peers.size(); ++i) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(config_.peers[i].port);
      if (::inet_pton(AF_INET, config_.peers[i].host.c_str(),
                      &addr.sin_addr) != 1) {
        throw std::invalid_argument("rt agent mode: bad peer address '" +
                                    config_.peers[i].host + "'");
      }
      peer_addrs_[i] = addr;
    }
    hosts_.resize(config_.num_stacks);
    stacks_.resize(config_.num_stacks);
    const NodeId local = config_.local_node;
    hosts_[local] = std::make_unique<RtHost>(*this, local, config_.seed);
    hosts_[local]->set_epoch(epoch_);
    hosts_[local]->set_initial_incarnation(config_.initial_incarnation);
    stacks_[local] =
        std::make_unique<Stack>(*hosts_[local], library, trace);
    hosts_[local]->open_socket(config_.peers[local].port,
                               /*any_addr=*/true);
    return;
  }
  for (NodeId i = 0; i < config_.num_stacks; ++i) {
    hosts_.push_back(std::make_unique<RtHost>(*this, i, config_.seed));
    hosts_.back()->set_epoch(epoch_);
    stacks_.push_back(std::make_unique<Stack>(*hosts_.back(), library, trace));
  }
  if (config_.transport == RtTransport::kUdpSockets) {
    for (NodeId i = 0; i < config_.num_stacks; ++i) {
      hosts_[i]->open_socket(
          static_cast<std::uint16_t>(config_.udp_base_port + i));
    }
  }
}

RtWorld::~RtWorld() {
  stop();
  // Join the delay wheel before hosts_ is destroyed: its pending closures
  // hold raw host pointers.  Anything still parked on it is dropped — a
  // delayed datagram that was never "transmitted" was never on the wire.
  if (wheel_ != nullptr) wheel_->stop();
}

TimePoint RtWorld::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - epoch_)
      .count();
}

void RtWorld::start() {
  if (started_) return;
  started_ = true;
  const bool with_receiver = config_.transport == RtTransport::kUdpSockets;
  for (auto& host : hosts_) {
    if (host != nullptr) host->start_threads(with_receiver, config_.udp_base_port);
  }
}

void RtWorld::stop() {
  for (auto& host : hosts_) {
    if (host != nullptr) host->stop_and_join();
  }
  started_ = false;
}

void RtWorld::post_to(NodeId node, std::function<void()> fn) {
  hosts_[node]->post(std::move(fn));
}

void RtWorld::call_on(NodeId node, std::function<void()> fn) {
  std::promise<void> done;
  auto fut = done.get_future();
  hosts_[node]->post([&fn, &done]() {
    fn();
    done.set_value();
  });
  fut.wait();
}

void RtWorld::at(TimePoint t, std::function<void()> fn) {
  schedule_.push_back(ControlEvent{t, kNoNode, std::move(fn)});
}

void RtWorld::at_node(TimePoint t, NodeId node, std::function<void()> fn) {
  schedule_.push_back(ControlEvent{t, node, std::move(fn)});
}

void RtWorld::crash(NodeId node) {
  hosts_[node]->mark_crashed();
  stacks_[node]->trace(TraceKind::kStackCrashed, "", "");
}

void RtWorld::quiesce_node(NodeId node) {
  if (!hosts_[node]->crashed()) return;
  // The crashed stack's loop thread leaves its run loop at the next crash
  // flag check; the join here is what gives the caller a happens-before
  // edge with the dying thread's final counter writes.
  hosts_[node]->stop_and_join();
}

void RtWorld::recover(NodeId node) {
  if (!hosts_[node]->crashed()) return;
  // The crashed stack's loop thread has already exited its run loop (it
  // checks the crash flag); join it and the receiver before touching state.
  hosts_[node]->stop_and_join();
  // Destroy the old incarnation's modules while the node still counts as
  // crashed; stop() handlers run on this (control) thread against a host
  // with no live threads, which is safe — everything they touch is behind
  // the host mutex or local to the dead stack.
  stacks_[node].reset();
  // World-global incarnation stamp: must outgrow every epoch this stack
  // ever adopted from other restarted peers, not just its own restart
  // count (see rp2p epoch adoption).
  hosts_[node]->reset_for_recovery(next_incarnation_++);
  stacks_[node] = std::make_unique<Stack>(*hosts_[node], library_, trace_);
  if (config_.transport == RtTransport::kUdpSockets) {
    hosts_[node]->open_socket(
        static_cast<std::uint16_t>(config_.udp_base_port + node));
  }
  if (started_) {
    hosts_[node]->start_threads(
        config_.transport == RtTransport::kUdpSockets, config_.udp_base_port);
  }
  stacks_[node]->trace(
      TraceKind::kStackRecovered, "", "",
      "incarnation=" + std::to_string(hosts_[node]->incarnation()));
  DPU_LOG(kInfo, "rt") << "recover s" << node << " (incarnation "
                       << hosts_[node]->incarnation() << ")";
}

bool RtWorld::crashed(NodeId node) const {
  // Agent mode holds no state for remote nodes (the supervisor tracks
  // their liveness): report them not-crashed.
  return hosts_[node] != nullptr && hosts_[node]->crashed();
}

std::set<NodeId> RtWorld::crashed_set() const {
  std::set<NodeId> out;
  for (NodeId i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i] != nullptr && hosts_[i]->crashed()) out.insert(i);
  }
  return out;
}

void RtWorld::set_link_filter(
    std::function<bool(NodeId, NodeId)> deliverable) {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  faults_.link_filter = std::move(deliverable);
}

void RtWorld::set_loss(double drop_probability,
                       double duplicate_probability) {
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  faults_.drop = drop_probability;
  faults_.duplicate = duplicate_probability;
}

void RtWorld::set_link_fault(NodeId src, NodeId dst,
                             std::optional<LinkFault> fault) {
  // Create the delay wheel *before* the fault becomes visible: senders only
  // reach for the wheel after reading extra_latency > 0 under fault_mutex_,
  // and that read happens-after this install, which happens-after the
  // wheel construction.
  if (fault.has_value() && fault->extra_latency > 0 && wheel_ == nullptr) {
    wheel_ = std::make_unique<DelayWheel>();
  }
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  faults_.link_faults.set(hosts_.size(), src, dst, std::move(fault));
}

bool RtWorld::run(TimePoint active_until, TimePoint deadline,
                  std::uint64_t /*max_events*/,
                  const std::function<bool()>& quiesced) {
  start();
  // Fire the pre-scheduled control events in time order (best-effort: the
  // control thread sleeps to each event's time, so everything downstream of
  // an event sees at most scheduler jitter).
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const ControlEvent& a, const ControlEvent& b) {
                     return a.at < b.at;
                   });
  auto sleep_until_world_time = [this](TimePoint t) {
    const Duration remaining = t - now();
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(remaining));
    }
  };
  for (ControlEvent& ev : schedule_) {
    sleep_until_world_time(ev.at);
    if (ev.node == kNoNode) {
      ev.fn();  // driver event (crash/recover/partition/loss) — runs here
    } else if (hosts_[ev.node] != nullptr && !hosts_[ev.node]->crashed()) {
      post_to(ev.node, std::move(ev.fn));
    }
  }
  schedule_.clear();
  sleep_until_world_time(active_until);

  // Drain: poll for quiescence until the deadline.  Without a callback the
  // drain is a short fixed grace period.
  const TimePoint drain_deadline =
      quiesced ? deadline : std::min(deadline, active_until + 2 * kSecond);
  constexpr Duration kPoll = 100 * kMillisecond;
  while (now() < drain_deadline) {
    if (quiesced && quiesced()) break;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<Duration>(kPoll, drain_deadline - now())));
  }
  // Stop every stack thread so the caller can harvest module state from
  // this thread without racing.
  stop();
  return true;
}

sockaddr_in RtWorld::peer_sockaddr(NodeId dst) const {
  if (agent_mode()) return peer_addrs_[dst];
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(config_.udp_base_port + dst));
  return addr;
}

RtWorld::IngressDecision RtWorld::ingress_decision(NodeId src, NodeId dst) {
  IngressDecision d;
  const std::lock_guard<std::mutex> lock(fault_mutex_);
  if (faults_.link_filter && !faults_.link_filter(src, dst)) {
    d.drop = true;
    return d;
  }
  double drop_p = faults_.drop;
  double dup_p = faults_.duplicate;
  if (const LinkFault* fault =
          faults_.link_faults.find(hosts_.size(), src, dst)) {
    drop_p = fault->drop;
    dup_p = fault->duplicate;
    d.extra_latency = fault->extra_latency;
  }
  if (drop_p > 0.0 || dup_p > 0.0) {
    // Same synchronized-stream rationale as route_packet: the receiver
    // thread decides concurrently with control-thread fault updates.
    static thread_local Rng drop_rng(0xD0D0'CAFE ^ config_.seed);
    if (drop_rng.chance(drop_p)) {
      d.drop = true;
    } else if (drop_rng.chance(dup_p)) {
      d.copies = 2;
    }
  }
  // Delayed ingress copies need the wheel; create it lazily here the same
  // way set_link_fault does for egress (we hold fault_mutex_, and the
  // receiver only dereferences after observing extra_latency > 0).
  if (d.extra_latency > 0 && wheel_ == nullptr) {
    wheel_ = std::make_unique<DelayWheel>();
  }
  return d;
}

void RtWorld::route_packet(NodeId src, NodeId dst, Payload data) {
  if (dst >= hosts_.size()) return;
  if (hosts_[src]->crashed()) return;  // dead stacks emit nothing
  packets_sent_.fetch_add(1, std::memory_order_relaxed);

  if (agent_mode()) {
    // Egress applies no faults in agent mode: drops, duplicates, partitions
    // and slow links are the *receiver's* ingress decision (each agent gets
    // the model from the supervisor), so a fault installed on one side
    // cannot double-fire.  Frame with the source id and resolve the peer.
    if (dst == config_.local_node) {
      // Self-addressed traffic short-circuits the wire, like in-proc.
      hosts_[dst]->enqueue_packet(src, std::move(data));
      return;
    }
    Bytes framed;
    framed.reserve(data.size() + 4);
    framed.push_back(static_cast<std::uint8_t>(src >> 24));
    framed.push_back(static_cast<std::uint8_t>(src >> 16));
    framed.push_back(static_cast<std::uint8_t>(src >> 8));
    framed.push_back(static_cast<std::uint8_t>(src));
    framed.insert(framed.end(), data.span().begin(), data.span().end());
    hosts_[src]->socket_send(peer_sockaddr(dst), framed);
    return;
  }

  // Snapshot the fault decision under the lock; deliver outside it.
  bool drop = false;
  int copies = 1;
  Duration extra_latency = 0;
  {
    const std::lock_guard<std::mutex> lock(fault_mutex_);
    if (faults_.link_filter && !faults_.link_filter(src, dst)) {
      drop = true;
    } else {
      double drop_p = faults_.drop;
      double dup_p = faults_.duplicate;
      if (const LinkFault* fault =
              faults_.link_faults.find(hosts_.size(), src, dst)) {
        drop_p = fault->drop;
        dup_p = fault->duplicate;
        extra_latency = fault->extra_latency;
      }
      if (drop_p > 0.0 || dup_p > 0.0) {
        // Drop decisions need their own synchronized stream: many sender
        // threads route concurrently.
        static thread_local Rng drop_rng(0xD0D0'CAFE ^ config_.seed);
        if (drop_rng.chance(drop_p)) {
          drop = true;
        } else if (drop_rng.chance(dup_p)) {
          copies = 2;
        }
      }
    }
  }
  if (drop || hosts_[dst]->crashed()) {
    packets_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (config_.transport == RtTransport::kUdpSockets) {
    // Prefix the datagram with the source node id (real sockets do not know
    // our logical ids).
    Bytes framed;
    framed.reserve(data.size() + 4);
    framed.push_back(static_cast<std::uint8_t>(src >> 24));
    framed.push_back(static_cast<std::uint8_t>(src >> 16));
    framed.push_back(static_cast<std::uint8_t>(src >> 8));
    framed.push_back(static_cast<std::uint8_t>(src));
    framed.insert(framed.end(), data.span().begin(), data.span().end());
    const sockaddr_in addr = peer_sockaddr(dst);
    for (int c = 0; c < copies; ++c) {
      if (extra_latency > 0) {
        // Slow-link fault: park the datagram on the delay wheel and put it
        // on the wire when the delay expires (the fault models one-way
        // path latency, so sender-side delay is equivalent).  The wheel —
        // not the sender's timer heap — so the injected latency does not
        // compete with protocol timers for the stack thread.
        wheel_->schedule(extra_latency,
                         [host = hosts_[src].get(), addr, framed]() {
                           host->socket_send(addr, framed);
                         });
      } else {
        hosts_[src]->socket_send(addr, framed);
      }
    }
    return;
  }
  for (int c = 0; c < copies; ++c) {
    if (extra_latency > 0) {
      wheel_->schedule(extra_latency,
                       [host = hosts_[dst].get(), src, data]() {
                         host->enqueue_packet(src, data);
                       });
    } else {
      hosts_[dst]->enqueue_packet(src, data);
    }
  }
}

}  // namespace dpu
