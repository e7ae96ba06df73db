// Deterministic discrete-event simulation engine.
//
// SimWorld hosts N protocol stacks in one address space with a shared
// virtual clock.  It provides, per DESIGN.md §2/§8:
//
//  * an event heap ordered by (virtual time, insertion sequence) — fully
//    deterministic given the world seed;
//  * a network model: per-link latency drawn uniformly from a configured
//    range, optional loss and duplication, a pluggable link filter for
//    partitions, and directional per-link fault overrides (asymmetric loss,
//    slow links);
//  * a processor model: every stack has a "busy-until" horizon; event
//    handlers charge CPU costs (service hops, per-byte serialization) that
//    push the horizon forward, so queueing delay — and therefore the
//    latency-vs-load saturation the paper's Figure 6 shows — emerges from
//    the model instead of being scripted;
//  * fault injection: crash(node), crash-recovery (recover(node) restarts
//    the stack with a bumped incarnation) and link filters (partitions).
//
// Execution model.  One thread runs every node's timer, closure and packet
// events from one pooled heap ordered by (time, insertion sequence), in
// windows of `[T, T + lookahead)`, where `T` is the earliest pending event
// and the lookahead is `min_latency + send_cost_fixed`: a packet sent at `u`
// departs no earlier than `u + send_cost_fixed` and arrives no earlier than
// `min_latency` later, so nothing sent inside a window is delivered inside
// it.  Packets wait in one pending buffer and enter the heap at the next
// window start, sorted by `(deliver_time, src, dst, link_seq)`, so their
// insertion sequence — the tie-break against other events at the same
// instant — is a function of the packets alone, not of when in the window
// they were sent.  Inserting packets straight into the heap would be just
// as deterministic but would reorder equal-time events relative to every
// recorded result.  Driver events (`at()`) run between windows, before
// node events at the same timestamp.  A stack's turn (HostEnv::at_turn_end)
// ends after each of its node events, after each driver step and at the
// start of run_until; its turn-end callbacks run right then, in request
// order, at the ended event's time.
//
// All determinism derives from seeded substreams (util/rng.hpp).  The same
// protocol code also runs on the multi-threaded real-time engine in
// src/rt; drivers reach both through the WorldControl interface
// (runtime/world.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "core/stack.hpp"
#include "core/trace.hpp"
#include "runtime/host.hpp"
#include "runtime/time.hpp"
#include "runtime/world.hpp"
#include "util/link_table.hpp"
#include "util/rng.hpp"

namespace dpu {

/// CPU nanoseconds charged per payload byte.  A dedicated alias (instead of
/// reusing Duration) because the value is *not* a duration: it only becomes
/// one after multiplying by a byte count, which the NetModelConfig::*_cost
/// accessors do.
using NanosPerByte = std::int64_t;

/// Network and CPU-cost model (DESIGN.md §8 calibration).
struct NetModelConfig {
  Duration min_latency = 45 * kMicrosecond;  ///< one-way latency, lower
  Duration max_latency = 75 * kMicrosecond;  ///< one-way latency, upper
  double drop_probability = 0.0;       ///< per-packet loss
  double duplicate_probability = 0.0;  ///< per-packet duplication
  Duration send_cost_fixed = 2 * kMicrosecond;  ///< sender CPU per packet
  NanosPerByte send_cost_per_byte_ns = 6;       ///< sender CPU per byte
  Duration recv_cost_fixed = 2 * kMicrosecond;  ///< receiver CPU per packet
  NanosPerByte recv_cost_per_byte_ns = 6;       ///< receiver CPU per byte

  /// Sender-side CPU cost of one `size`-byte packet (fixed + per-byte).
  [[nodiscard]] Duration send_cost(std::size_t size) const {
    return send_cost_fixed +
           send_cost_per_byte_ns * static_cast<Duration>(size);
  }

  /// Receiver-side CPU cost of one `size`-byte packet (fixed + per-byte).
  [[nodiscard]] Duration recv_cost(std::size_t size) const {
    return recv_cost_fixed +
           recv_cost_per_byte_ns * static_cast<Duration>(size);
  }
};

struct SimConfig {
  std::size_t num_stacks = 3;
  std::uint64_t seed = 1;
  NetModelConfig net;
  StackCostModel stack_cost;  ///< applied to every stack (service hop cost)
};

class SimWorld final : public WorldControl {
 public:
  explicit SimWorld(SimConfig config, const ProtocolLibrary* library = nullptr,
                    TraceSink* trace = nullptr);
  ~SimWorld() override;

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] std::size_t size() const override { return hosts_.size(); }
  [[nodiscard]] Stack& stack(NodeId node) override { return *stacks_[node]; }
  /// Engine time.  Inside a node's event handler this is the time of the
  /// event being executed; elsewhere it is the driver clock (last driver
  /// step / end of the last run).
  [[nodiscard]] TimePoint now() const override {
    return in_window_ ? now_ : driver_now_;
  }
  [[nodiscard]] const SimConfig& config() const { return config_; }

  // ---- Driver hooks --------------------------------------------------------

  /// Schedules a driver closure at absolute virtual time `t` (no CPU
  /// accounting; use for test/bench orchestration).  Driver closures run
  /// between windows, before node events with the same timestamp, so
  /// cross-stack mutations (crash, partitions, loss) take effect at an
  /// exact instant.
  void at(TimePoint t, std::function<void()> fn) override;

  /// Schedules a closure on `node`'s executor at time `t`; runs with that
  /// stack's busy-time accounting, as if triggered by a local event.
  void at_node(TimePoint t, NodeId node, std::function<void()> fn) override;

  /// Runs `fn` immediately in driver context (with the stack's cost
  /// accounting applying to whatever it charges).
  void run_on_node(NodeId node, std::function<void()> fn) override;

  // ---- Fault injection ------------------------------------------------------

  /// Crashes a stack: all of its pending and future events are discarded and
  /// packets addressed to it vanish.  Crash-stop until recover().
  void crash(NodeId node) override;

  /// Crash-recovery: replaces the crashed stack with a fresh Stack on the
  /// same node id.  The host keeps its identity but is reset — incarnation
  /// bumped, timers/handlers cleared, RNG reseeded on an incarnation
  /// substream — and every event of the old incarnation still pending
  /// (timers, packets in flight to the node, pending packets) is purged, so
  /// nothing of the old life can fire into the new one.  The caller
  /// composes modules on the fresh stack afterwards.
  void recover(NodeId node) override;

  [[nodiscard]] bool crashed(NodeId node) const override {
    return crashed_[node];
  }
  [[nodiscard]] std::set<NodeId> crashed_set() const override;

  /// Installs a link filter: packets with filter(src,dst)==false are dropped.
  /// Used for partitions; pass nullptr to heal.
  void set_link_filter(
      std::function<bool(NodeId, NodeId)> deliverable) override {
    link_filter_ = std::move(deliverable);
  }

  /// Adjusts the per-packet loss/duplication probabilities mid-run (applies
  /// to packets sent from now on).  The scenario engine uses this for
  /// bounded lossy-link windows; draws stay on the per-link substreams, so
  /// runs remain deterministic.
  void set_loss(double drop_probability,
                double duplicate_probability) override {
    config_.net.drop_probability = drop_probability;
    config_.net.duplicate_probability = duplicate_probability;
  }

  /// Directional per-link override of the loss model; also adds the fault's
  /// extra_latency to every packet delivered on (src, dst).  Draws stay on
  /// the per-link substream, so installing/clearing overrides preserves
  /// determinism.
  void set_link_fault(NodeId src, NodeId dst,
                      std::optional<LinkFault> fault) override;

  // ---- Execution ------------------------------------------------------------

  /// Processes events with time <= t_end; returns false if `max_events` was
  /// exhausted first (runaway guard for tests).
  bool run_until(TimePoint t_end,
                 std::uint64_t max_events = 500'000'000ULL);

  bool run_for(Duration d, std::uint64_t max_events = 500'000'000ULL) {
    return run_until(driver_now_ + d, max_events);
  }

  /// WorldControl::run — deterministic replay to `deadline`; `active_until`
  /// and `quiesced` are rt concepts and ignored here (the heap draining IS
  /// quiescence).
  bool run(TimePoint /*active_until*/, TimePoint deadline,
           std::uint64_t max_events,
           const std::function<bool()>& /*quiesced*/ = nullptr) override {
    return run_until(deadline, max_events);
  }

  [[nodiscard]] std::uint64_t processed_events() const {
    return processed_ + driver_processed_;
  }
  /// Events re-queued because their stack was busy (processor-model
  /// deferrals).  A hot-loop health metric for benches.
  [[nodiscard]] std::uint64_t deferrals() const { return deferrals_; }
  [[nodiscard]] std::uint64_t packets_sent() const override {
    return packets_sent_;
  }
  [[nodiscard]] std::uint64_t packets_dropped() const override {
    return packets_dropped_;
  }

 private:
  class SimHost;
  friend class SimHost;

  /// Tagged event record.  The two dominant event classes of a saturated
  /// run — packet delivery and timer fire — carry plain data (a pool slot /
  /// a timer id) instead of a heap-allocated closure; driver events
  /// (at_node/post) keep their std::function in the closure pool.
  ///
  /// The record itself is trivially copyable on purpose: heap pushes, pops
  /// and busy-deferral requeues move 32-byte PODs instead of running
  /// shared_ptr/std::function move constructors, which is where a saturated
  /// run spends most of its time.  Payloads and closures live in free-list
  /// side pools indexed by `pool`.
  /// kClosure = module-posted closure (dies with its incarnation);
  /// kDriver = at_node() control event (owned by the test/scenario
  /// driver — survives a crash-recovery purge, so an update scheduled on a
  /// node that recovers in between still fires).
  enum class EventKind : std::uint8_t { kClosure, kDriver, kPacket, kTimer };

  struct Event {
    TimePoint time;
    std::uint64_t seq;  // insertion order; total-order tiebreak
    NodeId node;
    EventKind kind;
    union {
      TimerId timer;  // kTimer: pooled timer handle
      struct {
        NodeId src;           // kPacket: sending stack
        std::uint32_t pool;   // kPacket/kClosure: side-pool slot
      } att;
    };
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 32);

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      // std::*_heap builds a max-heap; invert to pop the earliest event.
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A packet sent during the current window, waiting for the merge at the
  /// next window start.  `link_seq` is the per-(src,dst) send counter: it
  /// orders same-time packets on one link, duplicate copies included.
  struct PendingPacket {
    TimePoint time;
    NodeId src;
    NodeId dst;
    std::uint64_t link_seq;
    Payload payload;
  };

  /// Free-list side pool for event attachments (payloads, closures): O(1)
  /// acquire/release, no steady-state allocation, deterministic slot order.
  template <class T>
  struct EventPool {
    std::vector<T> slots;
    std::vector<std::uint32_t> free;

    std::uint32_t acquire(T value) {
      std::uint32_t slot;
      if (!free.empty()) {
        slot = free.back();
        free.pop_back();
        slots[slot] = std::move(value);
      } else {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.push_back(std::move(value));
      }
      return slot;
    }

    /// Moves the value out and recycles the slot.
    T release(std::uint32_t slot) {
      T out = std::move(slots[slot]);
      slots[slot] = T{};
      free.push_back(slot);
      return out;
    }
  };

  /// Driver control event (at()): runs between windows.  Rare (scenario
  /// schedule), so a plain heap of closures, no pooling.
  struct DriverEvent {
    TimePoint time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct DriverAfter {
    bool operator()(const DriverEvent& a, const DriverEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push_event(TimePoint t, NodeId node, std::function<void()> fn,
                  EventKind kind = EventKind::kClosure);
  void push_packet_event(TimePoint t, NodeId dst, NodeId src,
                         Payload payload);
  void push_timer_event(TimePoint t, NodeId node, TimerId id);
  void push_heap(Event ev);
  void sift_down_root();
  Event pop_heap_top();
  void dispatch(const Event& ev);
  void discard(const Event& ev);
  void purge_node_events(NodeId node);
  void do_send_packet(NodeId src, NodeId dst, Payload data);
  void do_charge(NodeId node, Duration cost);

  void merge_pending();
  void exec_window(TimePoint h, std::uint64_t budget);
  void run_driver_step(TimePoint t);
  void run_turn_ends();
  void flush_trace();

  SimConfig config_;
  const ProtocolLibrary* library_ = nullptr;  // kept for recover()
  TraceSink* trace_ = nullptr;                // merge target; see trace_bufs_
  Duration lookahead_ = 1;
  /// Node clock: the time of the node event executing (or last executed).
  TimePoint now_ = 0;
  /// Driver clock: advanced at driver steps and run end.
  TimePoint driver_now_ = 0;
  /// True while exec_window runs node events; selects the clock now()
  /// reports.
  bool in_window_ = false;

  std::vector<Event> heap_;
  EventPool<Payload> payloads_;
  EventPool<std::function<void()>> closures_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t deferrals_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  /// Packets sent since the last window start, from node handlers and
  /// driver context alike; merge_pending() moves them into the heap.
  std::vector<PendingPacket> pending_;
  /// Stacks with turn-end callbacks pending (HostEnv::at_turn_end), in
  /// request order; run after every node event and driver step.
  std::vector<NodeId> turn_end_nodes_;

  std::vector<DriverEvent> driver_heap_;
  std::uint64_t driver_next_seq_ = 0;
  std::uint64_t driver_processed_ = 0;

  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  /// Per-node trace buffers (only when a sink is installed): stacks write
  /// their own buffer during a run and flush_trace() merge-sorts everything
  /// into the real sink in (time, node, emission order) order — the order
  /// traced results were recorded in, rather than the order driver and
  /// node events happened to emit.
  class NodeTraceBuf;
  std::vector<std::unique_ptr<NodeTraceBuf>> trace_bufs_;
  std::vector<TimePoint> busy_until_;
  std::vector<bool> crashed_;
  /// World-global incarnation stamp handed to the next recovery (see
  /// recover(): stamps must outgrow every epoch any stack ever adopted).
  std::uint32_t next_incarnation_ = 1;
  /// Per-link RNG substreams and per-link send counters.
  LinkTable<Rng> link_rngs_;
  LinkTable<std::uint64_t> link_seqs_;
  std::function<bool(NodeId, NodeId)> link_filter_;
  /// Directional fault overrides (see LinkFaultTable).
  LinkFaultTable link_faults_;
};

}  // namespace dpu
