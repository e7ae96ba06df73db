// HostEnv — the boundary between a protocol stack and its execution engine.
//
// Every protocol module in this repository is written against this interface
// only; the discrete-event simulator (src/sim) and the real-thread engine
// (src/rt) both implement it, so the same protocol binaries run deterministic
// experiments and real multi-threaded deployments (DESIGN.md §2).
//
// Threading model: a stack is a single-threaded event processor.  The engine
// guarantees that timer callbacks, packet deliveries and post()ed closures
// for one stack never run concurrently, so modules need no locks (Core
// Guidelines CP.3: minimize explicit sharing).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/time.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace dpu {

/// Handle for a pending timer; 0 is never a valid id.
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

/// Handle for a pending turn-end callback; 0 is never a valid id.
using TurnEndId = std::uint64_t;
inline constexpr TurnEndId kNoTurnEnd = 0;

/// Per-origin sequence counters start at (incarnation << shift) + 1, so the
/// sequence space is partitioned into per-incarnation epochs: receivers
/// recognize a restarted peer by a sequence from a higher epoch and reset
/// their per-peer state, and a recovered stack can never replay sequence
/// numbers of its previous life.  48 bits leave room for ~2.8e14 messages
/// per incarnation and 65535 restarts.
inline constexpr int kIncarnationSeqShift = 48;

[[nodiscard]] inline std::uint64_t incarnation_seq_base(
    std::uint32_t incarnation) {
  return static_cast<std::uint64_t>(incarnation) << kIncarnationSeqShift;
}

[[nodiscard]] inline std::uint64_t seq_epoch(std::uint64_t seq) {
  return seq >> kIncarnationSeqShift;
}

/// RNG substream index for a recovered stack's new incarnation — the new
/// life must not replay the old one's randomness.  Shared by both engines
/// so they cannot drift.  The 2^32 base keeps every incarnation substream
/// clear of the other substream families (per-node 0..n, per-link
/// 1'000'000 + n*n) for any node count and incarnation.
[[nodiscard]] inline std::uint64_t incarnation_rng_substream(
    NodeId node, std::uint32_t incarnation) {
  return (1ULL << 32) + (static_cast<std::uint64_t>(incarnation) << 8) + node;
}

/// Engine services available to one stack.
class HostEnv {
 public:
  virtual ~HostEnv() = default;

  /// This stack's node id (0..world_size-1).
  [[nodiscard]] virtual NodeId node_id() const = 0;

  /// Number of stacks in the world.  Static membership; the GM protocol
  /// layers dynamic views on top.
  [[nodiscard]] virtual std::size_t world_size() const = 0;

  /// Current time.  Virtual in the simulator, monotonic clock in rt.
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Current time *including* CPU work charged during the running event.
  /// The simulator returns max(now, busy-until); the real-time engine
  /// returns now() (real cycles already advanced the clock).  Latency
  /// probes use this so that processing costs on the delivery path count.
  [[nodiscard]] virtual TimePoint busy_now() const { return now(); }

  /// One-shot timer; the callback runs on this stack's executor.  Returns a
  /// handle usable with cancel_timer.  `after` is clamped to >= 0.
  virtual TimerId set_timer(Duration after, std::function<void()> cb) = 0;

  /// Cancels a pending timer; no-op if it already fired or was cancelled.
  virtual void cancel_timer(TimerId id) = 0;

  /// Runs `fn` once when this stack's current turn ends.  A turn is one
  /// uninterrupted stretch of the stack's work: in the simulator one node
  /// event, one driver step, or everything done between two runs; in the
  /// real-time engine one loop iteration (the due timers, then the posted
  /// queue), and the callbacks run before that iteration's sendmmsg flush.
  /// Callbacks run on this stack's executor in request order; one requested
  /// from a turn-end callback runs in the same turn end.  A crash drops the
  /// pending callbacks.  Lets a module send once for everything a turn
  /// produced (rp2p's per-peer batches) without waiting on a timer.
  virtual TurnEndId at_turn_end(std::function<void()> fn) = 0;

  /// Cancels a pending turn-end callback; no-op if it already ran.
  virtual void cancel_turn_end(TurnEndId id) = 0;

  /// Sends an unreliable datagram to `dst` (may be dropped, duplicated or
  /// reordered by the network).  Sending to self is delivered like any other
  /// packet.  This is the engine half of the paper's `Net` service; the UDP
  /// module adapts it into a composable service.  The Payload is shared, not
  /// copied: duplication and multi-link fan-out bump a refcount only.
  virtual void send_packet(NodeId dst, Payload data) = 0;

  /// Schedules a closure on this stack's executor, after currently queued
  /// work.  Used to break call cycles and defer work out of upcalls.
  virtual void post(std::function<void()> fn) = 0;

  /// Per-stack deterministic RNG stream (seeded from the world seed).
  [[nodiscard]] virtual Rng& rng() = 0;

  /// Accounts `cost` of CPU work to this stack.  The simulator advances the
  /// stack's busy-time (creating queueing under load, DESIGN.md §8); the
  /// real-time engine ignores it because real cycles are already spent.
  virtual void charge(Duration cost) = 0;

  /// True once the engine has crashed this stack (fault injection).  Modules
  /// don't normally consult this; the engine stops delivering events to
  /// crashed stacks.
  [[nodiscard]] virtual bool crashed() const = 0;

  /// Incarnation stamp of this stack: 0 for the original boot; every
  /// crash-recovery (WorldControl::recover) assigns a fresh, world-globally
  /// increasing stamp.  Modules that assign per-origin sequence numbers
  /// fold this into the high bits of their counters (see
  /// kIncarnationSeqShift) so a recovered stack's fresh streams never
  /// collide with sequences its previous incarnation already used — which
  /// is what lets peers tell "restarted" from "duplicate" without any
  /// wire-format change.  Global (not per-node) growth matters: a stream
  /// epoch adopted from some restarted peer must also be outgrown by the
  /// adopter's own next restart.
  [[nodiscard]] virtual std::uint32_t incarnation() const { return 0; }

  /// Registers the single ingress handler for packets addressed to this
  /// stack (the UDP module).  Replacing the handler is allowed (Maestro-style
  /// full-stack rebuilds re-register); packets arriving while no handler is
  /// installed are dropped, matching UDP semantics.
  virtual void set_packet_handler(
      std::function<void(NodeId src, const Payload& data)> handler) = 0;
};

/// The pending turn-end callbacks of one stack: the engine half of
/// HostEnv::at_turn_end, shared by both engines.  Touched only from the
/// stack's executor.  Steady state allocates nothing: the two lists keep
/// their capacity, and callbacks that capture one pointer fit
/// std::function's inline buffer.
class TurnEndQueue {
 public:
  [[nodiscard]] bool empty() const { return pending_.empty(); }

  TurnEndId add(std::function<void()> fn) {
    pending_.push_back(Entry{++last_id_, std::move(fn)});
    return last_id_;
  }

  void cancel(TurnEndId id) {
    for (std::vector<Entry>* list : {&pending_, &running_}) {
      for (Entry& e : *list) {
        if (e.id == id) e.fn = nullptr;
      }
    }
  }

  /// Runs every pending callback, including those added meanwhile.
  void run() {
    while (!pending_.empty()) {
      running_.swap(pending_);
      // Indexed, and each callback moved out first: a callback may cancel
      // a later entry of this round or add one to the next.
      for (std::size_t i = 0; i < running_.size(); ++i) {
        std::function<void()> fn = std::move(running_[i].fn);
        running_[i].fn = nullptr;
        if (fn) fn();
      }
      running_.clear();
    }
  }

  /// Drops every pending callback unrun (crash, recovery).
  void clear() { pending_.clear(); }

 private:
  struct Entry {
    TurnEndId id;
    std::function<void()> fn;
  };
  std::vector<Entry> pending_;
  std::vector<Entry> running_;
  TurnEndId last_id_ = kNoTurnEnd;
};

/// Engine-side hook for delivering received packets into a stack.  The UDP
/// module registers itself here.
using PacketHandler = std::function<void(NodeId src, const Payload& data)>;

}  // namespace dpu
