// steady and switch: the Figure-4 stack (Repl-ABcast over
// abcast.ct / consensus.ct, rbcast, rp2p, udp, fd) on three RtWorld stacks
// talking real UDP over loopback.
//
// The load generator adds no threads: each stack's StackApp sends from a
// timer chain (open loop) on that stack's thread, and records deliveries
// there too, in fixed-size histograms (histogram.hpp).  Per-stack tallies
// are plain fields read only after RtWorld::stop() has joined the stack
// threads; the few values the control thread polls while the world runs
// (sent, delivered, updates done) are atomics with a single writer.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <vector>

#include "abcast/ct_abcast.hpp"
#include "app/stack_builder.hpp"
#include "consensus/ct_consensus.hpp"
#include "histogram.hpp"
#include "order_check.hpp"
#include "repl/update.hpp"
#include "rt/rt_world.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dpu::Duration;
using dpu::kMillisecond;
using dpu::kSecond;
using dpu::NodeId;
using dpu::TimePoint;

constexpr std::size_t kStacks = 3;
constexpr std::size_t kMessageBytes = 64;
/// magic, sender, seq, due time, flags, interval, update group.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 1 + 2 + 2;
constexpr double kSteadyRatePerStack = 500.0;  // msg/s, Poisson
constexpr Duration kAfterRequestWindow = 50 * kMillisecond;
/// The update metrics are taken per group of this many consecutive updates
/// (half of them in each switch direction): some 450 deliveries due after
/// the requests per direction, 45 beyond its p90.  Groups of eight spread
/// about twice as much between runs on switch while the host was busy.
constexpr std::uint64_t kUpdatesPerGroup = 4;
/// Length of a measurement interval: some 750 messages, 2250 deliveries at
/// the three stacks, 225 of them beyond the p90.
constexpr Duration kInterval = kSecond / 2;
/// Timed set-ups per phase; setup_s is their median.
constexpr int kSetupRepeats = 64;
constexpr Duration kDrainCap = 10 * kSecond;
constexpr Duration kLoopProbeEvery = 5 * kMillisecond;
/// A traced run keeps one span per this many abcast calls (every call is
/// still timed); a span per call would dominate the run's memory.
constexpr std::uint64_t kSpanSampleEvery = 16;
constexpr std::uint32_t kMagic = 0x50426e63;  // "PBnc"

/// Message tags, fixed by the sender from the plan when the message is due.
enum : std::uint8_t {
  kInWindow = 1,      ///< due inside the update-free window
  kAfterRequest = 2,  ///< due within kAfterRequestWindow after a request
  kOnSeq = 4,         ///< due while abcast.seq is the planned protocol
};

/// The run's schedule in absolute world time.  The measurement, from
/// window_start to load_end, is cut into intervals of kInterval; latency
/// and throughput are taken per interval, the update metrics per group of
/// kUpdatesPerGroup updates (calm_quartile()).
struct Plan {
  TimePoint window_start = 0;  ///< start of the measurement
  TimePoint window_end = 0;    ///< end of the latency/throughput window
  TimePoint load_end = 0;
  std::vector<TimePoint> requests;  ///< planned update requests

  /// Index of the interval holding `t` (t >= window_start).
  [[nodiscard]] std::size_t interval_of(TimePoint t) const {
    return static_cast<std::size_t>((t - window_start) / kInterval);
  }
};

Plan make_plan(const std::string& workload, double seconds, TimePoint t0) {
  auto at = [t0](double s) { return t0 + static_cast<Duration>(s * 1e9); };
  Plan p;
  p.load_end = at(seconds);
  // Warm-up, then the measurement.  Its latency and throughput window
  // holds whole intervals: a short last one would weigh like a full one.
  const double warm = 0.3;
  const double step = static_cast<double>(kInterval) / 1e9;
  const auto whole = [step](double s) {
    return step * std::max(1.0, std::floor(s / step));
  };
  p.window_start = at(warm);
  if (workload == "switch") {
    // The steady load with an update every 125 ms, all of it measured.
    p.window_end = at(warm + whole(seconds - warm));
    for (double s = 0.5; s < seconds - 0.2; s += 0.125) {
      p.requests.push_back(at(s));
    }
  } else {
    // An update-free window (the bypass measurement), then an update phase
    // under the same load for the update metrics.
    const double end = warm + whole(0.6 * (seconds - warm));
    p.window_end = at(end);
    for (double s = end + 0.1; s < seconds - 0.1; s += 0.05) {
      p.requests.push_back(at(s));
    }
  }
  return p;
}

/// Update k (1-based) alternates the abcast protocol away from the initial
/// abcast.ct and back.
const char* update_target(std::uint64_t k) {
  return k % 2 == 1 ? dpu::SeqAbcastModule::kProtocolName
                    : dpu::CtAbcastModule::kProtocolName;
}

dpu::StandardStackOptions stack_options() {
  dpu::StandardStackOptions o;
  o.with_gm = false;  // Figure 4 below the application: no topics/GM
  o.abcast_protocol = dpu::CtAbcastModule::kProtocolName;
  o.consensus_protocol = dpu::CtConsensusModule::kProtocolName;
  return o;
}

/// A wall-clock figure of the run from its values per interval (or per
/// update group): their first quartile where lower is better, their third
/// where higher is better.  Other guests of the shared host hold the
/// process off for stretches of seconds; that only ever makes an interval
/// slower, and it moved the median over the intervals by 2-6x between
/// identical runs (README.md).  The calm quartile follows the intervals the
/// host left alone, and still moves when the program gets slower in more
/// than a quarter of them.
double calm_quartile(dpu::Samples& values, bool higher_is_better) {
  return values.percentile(higher_is_better ? 75.0 : 25.0);
}

/// Percentile p of each non-empty histogram of a pair (the two protocols or
/// the two switch directions), in microseconds, averaged.
double mean_over_present(const std::array<Histogram, 2>& pair, double p) {
  double sum = 0.0;
  int n = 0;
  for (const Histogram& h : pair) {
    if (h.count() == 0) continue;
    sum += h.percentile(p) / 1e3;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

template <typename HistogramPairs>
void merge_pairs(HistogramPairs& into, const HistogramPairs& from) {
  if (from.size() > into.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    for (std::size_t j = 0; j < 2; ++j) into[i][j].merge(from[i][j]);
  }
}

/// A per-update figure by update group: per group, the median of each
/// switch direction (odd updates go to abcast.seq, even ones back to
/// abcast.ct), averaged over the directions present.  The directions are
/// ordered by different protocols and form two distinct modes, between
/// which a pooled median would jump from run to run.
dpu::Samples direction_medians_by_group(
    const std::map<std::uint64_t, double>& per_update) {
  std::map<std::uint64_t, std::array<dpu::Samples, 2>> by_group;
  for (const auto& [k, v] : per_update) {
    by_group[(k - 1) / kUpdatesPerGroup][k % 2].add(v);
  }
  dpu::Samples out;
  for (auto& [group, directions] : by_group) {
    double sum = 0.0;
    int n = 0;
    for (dpu::Samples& d : directions) {
      if (d.count() == 0) continue;
      sum += d.median();
      ++n;
    }
    out.add(sum / n);
  }
  return out;
}

/// State every StackApp of one world shares with the control thread.
struct Shared {
  const Plan* plan = nullptr;  ///< set before `sending` turns true
  std::atomic<bool> sending{false};
  bool traced = false;
  std::uint64_t seed = 1;
};

/// Application of one stack: load generator, delivery recorder and update
/// listener.  Everything but the atomics is touched only on the stack's
/// thread until the world is stopped.
class StackApp final : public dpu::AbcastListener, public dpu::UpdateListener {
 public:
  StackApp(NodeId self, Shared& shared)
      : log(kStacks), spans(self), self_(self), shared_(&shared),
        rng_(dpu::Rng::substream(shared.seed, 0x5e4d0000 + self)) {}

  StackApp(const StackApp&) = delete;
  StackApp& operator=(const StackApp&) = delete;

  void attach(dpu::Stack& stack, const dpu::StandardStack& modules) {
    stack_ = &stack;
    host_ = &stack.host();
    this->modules = modules;
    abcast_ = stack.require<dpu::AbcastApi>(dpu::kAbcastService);
    stack.listen<dpu::AbcastListener>(dpu::kAbcastService, this, nullptr);
    stack.listen<dpu::UpdateListener>(dpu::kUpdateService, this, nullptr);
    note_inner_module();
  }

  /// Set-up probe: one message, sent right away.
  void send_probe() { send(host_->now(), host_->now()); }

  /// Starts the load (posted once `sending` is true).
  void begin() {
    next_due_ = host_->now() + exp_gap();
    arm();
  }

  /// Runs one update request on this (the initiating) stack.
  void request_update(std::uint64_t k) {
    Request r;
    r.k = k;
    r.start_ns = mono_ns();
    try {
      modules.update->request_update(dpu::kAbcastService, update_target(k));
      r.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: update %llu rejected: %s\n",
                   static_cast<unsigned long long>(k), e.what());
    }
    r.end_ns = mono_ns();
    r.span = spans.add("repl.request_update", r.start_ns, r.end_ns, 0, k);
    requests.push_back(r);
  }

  /// Loop-lag probe: runs when the stack thread gets to it.
  void loop_probe(TimePoint posted_at) {
    loop_lag.add(host_->now() - posted_at);
  }

  void adeliver(NodeId sender, const dpu::Bytes& payload) override {
    const TimePoint now = host_->now();
    if (payload.size() < kHeaderBytes) {
      ++malformed;
      return;
    }
    dpu::BufReader r(payload);
    const std::uint32_t magic = r.get_u32();
    const std::uint32_t from = r.get_u32();
    const std::uint64_t seq = r.get_u64();
    const TimePoint due = r.get_i64();
    const std::uint8_t flags = r.get_u8();
    const std::uint16_t interval = r.get_u16();
    const std::uint16_t group = r.get_u16();
    if (magic != kMagic || from != sender) {
      ++malformed;
      return;
    }
    log.record(from, seq);
    const std::size_t on_seq = (flags & kOnSeq) != 0 ? 1 : 0;
    if (flags & kInWindow) {
      add_latency(latency_window, interval, on_seq, now - due);
    }
    if (flags & kAfterRequest) {
      add_latency(latency_after_request, group, on_seq, now - due);
    }
    delivered.store(delivered.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  }

  void on_update_complete(const dpu::UpdateEvent& event) override {
    if (event.service != dpu::kAbcastService) return;
    completions.push_back(Completion{event.version, mono_ns()});
    // Start and parent are filled in once the request is known (run_phase).
    spans.add("repl.update_complete", 0, completions.back().at_ns, 0,
              event.version);
    note_inner_module();
    updates_done.store(updates_done.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  }

  // ---- Read by the control thread while the world runs (single writer) --
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> updates_done{0};

  // ---- Read by the control thread only after RtWorld::stop() -------------
  struct Request {
    std::uint64_t k = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t span = 0;
    bool ok = false;
  };
  struct Completion {
    std::uint64_t version = 0;
    std::int64_t at_ns = 0;
  };
  DeliveryLog log;
  std::uint64_t malformed = 0;
  // Nanoseconds.  Index 1 of a pair: due while abcast.seq was the planned
  // protocol (kOnSeq), which for the after-request latency is the switch
  // direction (odd updates go to abcast.seq, even ones back to abcast.ct).
  using HistogramPairs = std::vector<std::array<Histogram, 2>>;
  HistogramPairs latency_window;         ///< by interval of the due time
  HistogramPairs latency_after_request;  ///< by update group of the request
  Histogram send_lag;
  Histogram abcast_call;
  Histogram loop_lag;
  std::vector<Request> requests;
  std::vector<Completion> completions;
  /// Every inner abcast module this stack has run (old ones stay in the
  /// stack after a switch, so the pointers stay valid).
  std::set<dpu::Module*> inner_modules;
  dpu::StandardStack modules;
  SpanBuffer spans;

 private:
  Duration exp_gap() {
    const double u = rng_.uniform01();
    return static_cast<Duration>(-std::log1p(-u) / kSteadyRatePerStack * 1e9);
  }

  static void add_latency(HistogramPairs& by, std::size_t index,
                          std::size_t on_seq, Duration ns) {
    if (index >= by.size()) by.resize(index + 1);
    by[index][on_seq].add(ns);
  }

  void arm() {
    host_->set_timer(std::max<Duration>(next_due_ - host_->now(), 0),
                     [this]() { tick(); });
  }

  /// Open loop: sends every message that has come due, then re-arms.
  void tick() {
    if (!shared_->sending.load(std::memory_order_acquire)) return;
    const TimePoint now = host_->now();
    while (next_due_ <= now) {
      send(next_due_, now);
      next_due_ += exp_gap();
    }
    arm();
  }

  void send(TimePoint due, TimePoint now) {
    const std::uint64_t seq = sent.load(std::memory_order_relaxed);
    std::uint8_t flags = 0;
    std::uint16_t interval = 0;
    std::uint16_t group = 0;
    if (const Plan* plan = shared_->sending.load(std::memory_order_acquire)
                               ? shared_->plan
                               : nullptr) {
      if (due >= plan->window_start) {
        interval = static_cast<std::uint16_t>(plan->interval_of(due));
      }
      if (due >= plan->window_start && due < plan->window_end) {
        flags |= kInWindow;
        send_lag.add(now - due);
      }
      // Requests planned at or before `due`; due times only grow.
      while (requests_passed_ < plan->requests.size() &&
             plan->requests[requests_passed_] <= due) {
        ++requests_passed_;
      }
      if (requests_passed_ % 2 == 1) flags |= kOnSeq;  // see update_target
      if (requests_passed_ > 0 &&
          due < plan->requests[requests_passed_ - 1] + kAfterRequestWindow) {
        flags |= kAfterRequest;
        group = static_cast<std::uint16_t>((requests_passed_ - 1) /
                                           kUpdatesPerGroup);
      }
    }
    dpu::BufWriter w(kMessageBytes);
    w.put_u32(kMagic);
    w.put_u32(self_);
    w.put_u64(seq);
    w.put_i64(due);
    w.put_u8(flags);
    w.put_u16(interval);
    w.put_u16(group);
    for (std::size_t b = kHeaderBytes; b < kMessageBytes; ++b) {
      w.put_u8(static_cast<std::uint8_t>(b));
    }
    dpu::Payload payload = w.take_payload();
    sent.store(seq + 1, std::memory_order_relaxed);
    if (!shared_->traced) {
      abcast_.call(
          [&](dpu::AbcastApi& api) { api.abcast(std::move(payload)); });
      return;
    }
    const std::int64_t t0 = mono_ns();
    abcast_.call([&](dpu::AbcastApi& api) { api.abcast(std::move(payload)); });
    const std::int64_t t1 = mono_ns();
    abcast_call.add(t1 - t0);
    if (seq % kSpanSampleEvery == 0) {
      spans.add("repl.abcast", t0, t1, 0,
                (static_cast<std::uint64_t>(self_) << 48) | seq);
    }
  }

  void note_inner_module() {
    if (dpu::Module* m =
            stack_->slot(dpu::kAbcastInnerService).provider_module()) {
      inner_modules.insert(m);
    }
  }

  NodeId self_;
  Shared* shared_;
  dpu::Stack* stack_ = nullptr;
  dpu::HostEnv* host_ = nullptr;
  dpu::ServiceRef<dpu::AbcastApi> abcast_;
  dpu::Rng rng_;
  TimePoint next_due_ = 0;
  std::size_t requests_passed_ = 0;
};

/// This run's UDP ports: a block below the ephemeral range (32768+) picked
/// from the seed and the process id, handed out three ports per world.  A
/// failed bind is counted and the next triple is tried.
class PortRange {
 public:
  explicit PortRange(std::uint16_t base) : base_(base) {}

  static std::uint16_t derive(std::uint64_t seed) {
    const std::uint64_t mix =
        seed * 0x9E3779B97F4A7C15ULL ^
        static_cast<std::uint64_t>(::getpid()) * 40503ULL;
    return static_cast<std::uint16_t>(22000 + (mix % 150) * 64);
  }

  std::uint16_t next() {
    const std::uint16_t port = static_cast<std::uint16_t>(
        base_ + (used_ * kStacks) % (64 - 64 % kStacks));
    ++used_;
    return port;
  }

  [[nodiscard]] std::uint16_t base() const { return base_; }

  std::uint64_t bind_failures = 0;

 private:
  std::uint16_t base_;
  std::uint64_t used_ = 0;
};

/// One composed rt world.  Member order matters: the world (and with it the
/// stack threads) is destroyed first, before the apps and the library its
/// stacks refer to.
struct World {
  dpu::ProtocolLibrary library;
  Shared shared;
  std::vector<std::unique_ptr<StackApp>> apps;
  std::unique_ptr<dpu::RtWorld> world;
  double setup_s = 0.0;
  double first_delivery_s = 0.0;
  bool pinned = false;

  [[nodiscard]] std::uint64_t delivered_min() const {
    std::uint64_t m = UINT64_MAX;
    for (const auto& a : apps) {
      m = std::min(m, a->delivered.load(std::memory_order_relaxed));
    }
    return m;
  }
  [[nodiscard]] std::uint64_t delivered_total() const {
    std::uint64_t t = 0;
    for (const auto& a : apps) {
      t += a->delivered.load(std::memory_order_relaxed);
    }
    return t;
  }
  [[nodiscard]] std::uint64_t sent_total() const {
    std::uint64_t t = 0;
    for (const auto& a : apps) t += a->sent.load(std::memory_order_relaxed);
    return t;
  }
};

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// One SCHED_IDLE busy loop on each stack CPU, for the whole run.  An idle
/// virtual CPU halts, and on a busy host the hypervisor can take
/// milliseconds to run it again when a packet or timer wakes a stack
/// thread; that wake-up delay, not the protocol, then set the latency of
/// the sparse workloads and moved it 2-3x between identical runs.  A
/// SCHED_IDLE thread never delays a runnable stack thread: the kernel
/// preempts it on every wake-up.  Its CPU time is subtracted from the
/// process's (cpu()).
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
      threads_.emplace_back([this, cpu]() { spin(cpu); });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// Process CPU time minus the spinners'.
  [[nodiscard]] CpuTimes cpu() {
    CpuTimes c = process_cpu();
    for (std::thread& t : threads_) {
      clockid_t id;
      timespec ts{};
      if (::pthread_getcpuclockid(t.native_handle(), &id) == 0 &&
          ::clock_gettime(id, &ts) == 0) {
        c.user_us -= static_cast<double>(ts.tv_sec) * 1e6 +
                     static_cast<double>(ts.tv_nsec) / 1e3;
      }
    }
    return c;
  }

 private:
  void spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_param param{};
    // A spinner that is not SCHED_IDLE on its own CPU would compete with
    // the stack threads: then it does not spin at all.
    if (::sched_setaffinity(0, sizeof(one), &one) != 0 ||
        ::sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joined before stop_ dies
};

/// Thread ids of this process.
std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] != '.') {
        ids.insert(static_cast<pid_t>(std::atoi(e->d_name)));
      }
    }
    ::closedir(dir);
  }
  return ids;
}

/// The thread ids of the stacks' event loops (a closure run on each).
std::vector<pid_t> event_loop_tids(dpu::RtWorld& world) {
  std::vector<std::atomic<pid_t>> tid(kStacks);
  for (NodeId i = 0; i < kStacks; ++i) {
    world.call_on(i, [&tid, i]() {
      tid[i].store(static_cast<pid_t>(::syscall(SYS_gettid)));
    });
  }
  std::vector<pid_t> tids;
  for (const std::atomic<pid_t>& t : tid) tids.push_back(t.load());
  return tids;
}

/// Pins stack i's two threads — its event loop and its socket receiver,
/// which RtWorld::start() creates in that order, stack by stack — to the
/// i-th CPU the process may use, the one its idle spinner keeps awake.  Left
/// to the scheduler, the placement of six threads over the CPUs differs
/// from run to run, and with it the latency tail.
/// Returns false, pinning nothing, when the threads cannot be told apart.
bool pin_stack_threads(const std::vector<pid_t>& loop_tids,
                       const std::set<pid_t>& before) {
  std::vector<pid_t> started;
  for (const pid_t tid : thread_ids()) {
    if (before.count(tid) == 0) started.push_back(tid);
  }
  if (started.size() != 2 * kStacks) return false;
  for (NodeId i = 0; i < kStacks; ++i) {
    if (started[2 * i] != loop_tids[i]) return false;
  }
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < kStacks) return false;
  for (NodeId i = 0; i < kStacks; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    for (const pid_t tid : {started[2 * i], started[2 * i + 1]}) {
      if (::sched_setaffinity(tid, sizeof(one), &one) != 0) return false;
    }
  }
  return true;
}

void sleep_until_world(const dpu::RtWorld& world, TimePoint t) {
  const Duration d = t - world.now();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Builds a world, starts it and takes it up to the first delivery at every
/// stack.  World::setup_s is construction, composition and start(), the
/// work a change could move into set-up.  The wait until the new stack
/// threads run and deliver the first message is timed apart
/// (World::first_delivery_s): on a virtual machine it is set by how soon
/// the host runs a woken vCPU (the first delivery took about 0.9, 2.3 or
/// 5.5 ms, in shares that moved with the host), and a set-up time that
/// included it moved by up to 47% between two sets of ten runs.  Throws
/// std::runtime_error when no port triple binds or the probe is never
/// delivered.
std::unique_ptr<World> set_up(const Options& options, bool traced,
                              PortRange& ports, SpanBuffer& control_spans) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::int64_t t0 = mono_ns();
    auto w = std::make_unique<World>();
    w->shared.traced = traced;
    w->shared.seed = options.seed;
    const dpu::StandardStackOptions stack_opts = stack_options();
    w->library = dpu::make_standard_library(stack_opts);
    dpu::RtConfig config;
    config.num_stacks = kStacks;
    config.seed = options.seed;
    config.transport = dpu::RtTransport::kUdpSockets;
    config.udp_base_port = ports.next();
    try {
      w->world = std::make_unique<dpu::RtWorld>(config, &w->library);
    } catch (const std::runtime_error& e) {
      ++ports.bind_failures;
      std::fprintf(stderr, "perfbench: %s; trying the next ports\n", e.what());
      continue;
    }
    const std::uint64_t setup_span =
        control_spans.begin("setup", t0, 0,
                            static_cast<std::uint64_t>(attempt));
    for (NodeId i = 0; i < kStacks; ++i) {
      w->apps.push_back(std::make_unique<StackApp>(i, w->shared));
      const std::int64_t c0 = mono_ns();
      const dpu::StandardStack modules =
          dpu::build_standard_stack(w->world->stack(i), stack_opts);
      w->apps.back()->attach(w->world->stack(i), modules);
      control_spans.add("compose", c0, mono_ns(), setup_span, i);
    }
    const std::int64_t scan_start = mono_ns();
    const std::set<pid_t> before = thread_ids();
    const std::int64_t scan_ns = mono_ns() - scan_start;  // for pinning only
    w->world->start();
    const std::int64_t started = mono_ns();
    w->pinned = pin_stack_threads(event_loop_tids(*w->world), before);
    const std::int64_t probe = mono_ns();
    w->world->post_to(0, [app = w->apps[0].get()]() { app->send_probe(); });
    const TimePoint give_up = w->world->now() + kDrainCap;
    while (w->delivered_min() < 1) {
      if (w->world->now() > give_up) {
        throw std::runtime_error("set-up probe was never delivered");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    const std::int64_t t1 = mono_ns();
    control_spans.end(setup_span, t1);
    w->setup_s = static_cast<double>(started - t0 - scan_ns) / 1e9;
    w->first_delivery_s = static_cast<double>(t1 - probe) / 1e9;
    return w;
  }
  throw std::runtime_error("no UDP port triple could be bound");
}

/// Everything one measured phase produced.
struct Phase {
  RunResult result;  ///< attempted/failed/problems + end-to-end metrics
  MetricValues layers;
  double cpu_us_per_msg = 0.0;
};

Phase run_phase(const Options& options, double seconds, bool traced,
                PortRange& ports, IdleSpinners& spinners) {
  SpanBuffer control_spans(kStacks);
  dpu::Samples setup_times;
  dpu::Samples first_delivery_ms;
  std::unique_ptr<World> w;
  // One untimed warm-up set-up (first use of the code and the sockets),
  // then the timed ones; the last world is the one measured.
  for (int i = 0; i <= kSetupRepeats; ++i) {
    w.reset();  // the previous set-up world is torn down untimed
    w = set_up(options, traced, ports, control_spans);
    if (i > 0) {
      setup_times.add(w->setup_s);
      first_delivery_ms.add(w->first_delivery_s * 1e3);
    }
  }
  dpu::RtWorld& world = *w->world;

  const Plan plan = make_plan(options.workload, seconds, world.now());
  w->shared.plan = &plan;
  w->shared.sending.store(true, std::memory_order_release);
  for (NodeId i = 0; i < kStacks; ++i) {
    world.post_to(i, [app = w->apps[i].get()]() { app->begin(); });
  }

  // The control thread samples delivery count and process CPU at every
  // window interval boundary; host steal is read for the metadata line.
  struct Tick {
    TimePoint at = 0;
    std::uint64_t delivered = 0;
    CpuTimes cpu;
  };
  auto tick = [&]() {
    return Tick{world.now(), w->delivered_total(), spinners.cpu()};
  };
  const HostTicks host_start = host_ticks();
  std::vector<Tick> window_ticks;
  TimePoint next_tick = plan.window_start;
  std::size_t next_request = 0;
  TimePoint next_probe = traced ? world.now() : INT64_MAX;
  for (;;) {
    TimePoint next = std::min(plan.load_end, next_tick);
    if (next_request < plan.requests.size()) {
      next = std::min(next, plan.requests[next_request]);
    }
    next = std::min(next, next_probe);
    sleep_until_world(world, next);
    const TimePoint now = world.now();
    if (now >= next_tick) {
      window_ticks.push_back(tick());
      next_tick = next_tick >= plan.window_end
                      ? INT64_MAX
                      : std::min(next_tick + kInterval, plan.window_end);
    }
    while (next_request < plan.requests.size() &&
           plan.requests[next_request] <= now) {
      const std::uint64_t k = next_request + 1;
      const NodeId initiator = static_cast<NodeId>(next_request % kStacks);
      world.post_to(initiator, [app = w->apps[initiator].get(), k]() {
        app->request_update(k);
      });
      ++next_request;
    }
    if (now >= next_probe) {
      for (NodeId i = 0; i < kStacks; ++i) {
        world.post_to(i, [app = w->apps[i].get(), now]() {
          app->loop_probe(now);
        });
      }
      next_probe = now + kLoopProbeEvery;
    }
    if (now >= plan.load_end && next_tick == INT64_MAX) break;
  }
  const HostTicks host_end = host_ticks();
  w->shared.sending.store(false, std::memory_order_release);
  // Grace period: a send that read `sending` just before the store is
  // counted in `sent` before the drain check below looks at it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Drain: every message delivered everywhere, every update done everywhere.
  const std::uint64_t updates = plan.requests.size();
  const TimePoint give_up = world.now() + kDrainCap;
  auto drained = [&]() {
    const std::uint64_t sent = w->sent_total();
    for (const auto& a : w->apps) {
      if (a->delivered.load(std::memory_order_relaxed) < sent) return false;
      if (a->updates_done.load(std::memory_order_relaxed) < updates) {
        return false;
      }
    }
    return true;
  };
  while (!drained() && world.now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  world.stop();  // joins every stack thread: all tallies below are stable

  Phase phase;
  RunResult& result = phase.result;

  // ---- Correctness ---------------------------------------------------------
  std::vector<DeliveryLog> logs;
  std::vector<std::uint64_t> sent;
  std::uint64_t malformed = 0;
  for (const auto& a : w->apps) {
    logs.push_back(a->log);
    sent.push_back(a->sent.load());
    malformed += a->malformed;
  }
  const DeliveryVerdict verdict = check_deliveries(logs, sent);
  std::uint64_t messages_sent = 0;
  for (const std::uint64_t s : sent) messages_sent += s;
  result.attempted = messages_sent + updates;
  result.failed = verdict.failures() + malformed;
  if (verdict.failures() + malformed > 0) {
    result.problems.push_back(
        "deliveries: missing=" + std::to_string(verdict.missing) +
        " duplicates=" + std::to_string(verdict.duplicates) +
        " foreign=" + std::to_string(verdict.foreign + malformed) +
        " order_mismatches=" + std::to_string(verdict.order_mismatches));
  }
  std::map<std::uint64_t, StackApp::Request> requests;
  for (const auto& a : w->apps) {
    for (const auto& r : a->requests) requests[r.k] = r;
  }
  std::uint64_t failed_updates = 0;
  std::map<std::uint64_t, double> convergence_ms;
  dpu::Samples spread_ms;
  dpu::Samples request_us;
  for (std::uint64_t k = 1; k <= updates; ++k) {
    const auto req = requests.find(k);
    std::int64_t first = INT64_MAX;
    std::int64_t last = INT64_MIN;
    std::size_t done = 0;
    for (const auto& a : w->apps) {
      for (const auto& c : a->completions) {
        if (c.version != k) continue;
        ++done;
        first = std::min(first, c.at_ns);
        last = std::max(last, c.at_ns);
      }
    }
    if (req == requests.end() || !req->second.ok || done != kStacks) {
      ++failed_updates;
      continue;
    }
    convergence_ms[k] = static_cast<double>(last - req->second.start_ns) / 1e6;
    spread_ms.add(static_cast<double>(last - first) / 1e6);
    request_us.add(
        static_cast<double>(req->second.end_ns - req->second.start_ns) / 1e3);
  }
  std::string final_protocol;
  for (const auto& a : w->apps) {
    const dpu::UpdateStatus st =
        a->modules.update->current_version(dpu::kAbcastService);
    if (st.version != updates) ++failed_updates;
    if (final_protocol.empty()) final_protocol = st.protocol;
    if (st.protocol != final_protocol) ++failed_updates;
  }
  result.failed += failed_updates;
  if (failed_updates > 0) {
    result.problems.push_back("updates: " + std::to_string(failed_updates) +
                              " failed of " + std::to_string(updates));
  }

  // ---- End-to-end metrics -------------------------------------------------
  // Throughput and latencies are taken per interval, the update metrics per
  // update group, and the run reports their calm quartile.  CPU per message is
  // the window's total over its messages: CPU time does not pass while the
  // host holds the process off, and the total moved less between identical
  // runs than a figure taken per interval.
  dpu::Samples throughput_by_interval;
  for (std::size_t i = 0; i + 1 < window_ticks.size(); ++i) {
    const Tick& from = window_ticks[i];
    const Tick& to = window_ticks[i + 1];
    const double msgs =
        static_cast<double>(to.delivered - from.delivered) / kStacks;
    throughput_by_interval.add(
        ratio(msgs, static_cast<double>(to.at - from.at) / 1e9));
  }
  const Tick& first = window_ticks.front();
  const Tick& last = window_ticks.back();
  const double window_msgs =
      static_cast<double>(last.delivered - first.delivered) / kStacks;
  const CpuTimes window_cpu{last.cpu.user_us - first.cpu.user_us,
                            last.cpu.sys_us - first.cpu.sys_us};
  phase.cpu_us_per_msg = ratio(window_cpu.total_us(), window_msgs);

  StackApp::HistogramPairs window;
  StackApp::HistogramPairs after_request;
  for (const auto& a : w->apps) {
    merge_pairs(window, a->latency_window);
    merge_pairs(after_request, a->latency_after_request);
  }
  // p50: per interval, the median of each protocol that ran in it,
  // averaged (on switch an interval holds two latency modes, and their
  // shares differ between intervals).  Tail: p90 per interval.  p99 is set
  // by hypervisor stalls of a few milliseconds and moved 20-100% between
  // identical runs, so it is reported per layer, without a bound.
  dpu::Samples p50_by_interval;
  dpu::Samples p90_by_interval;
  Histogram pooled;
  for (const std::array<Histogram, 2>& protocols : window) {
    Histogram both;
    for (const Histogram& h : protocols) both.merge(h);
    if (both.count() == 0) continue;
    pooled.merge(both);
    p50_by_interval.add(mean_over_present(protocols, 50.0));
    p90_by_interval.add(both.percentile(90.0) / 1e3);
  }
  // After-request latency: per update group, the p90 of each switch
  // direction, averaged; the p99 per layer pools each direction.
  dpu::Samples switch_p90_by_group;
  std::array<Histogram, 2> after_request_pooled;
  for (const std::array<Histogram, 2>& directions : after_request) {
    if (directions[0].count() + directions[1].count() == 0) continue;
    switch_p90_by_group.add(mean_over_present(directions, 90.0));
    for (std::size_t d = 0; d < 2; ++d) {
      after_request_pooled[d].merge(directions[d]);
    }
  }
  dpu::Samples convergence_by_group =
      direction_medians_by_group(convergence_ms);
  MetricValues& m = result.metrics;
  m["setup_s"] = setup_times.median();
  m["latency_p50_us"] = calm_quartile(p50_by_interval, false);
  m["latency_p90_us"] = calm_quartile(p90_by_interval, false);
  m["throughput_msg_s"] = calm_quartile(throughput_by_interval, true);
  m["cpu_us_per_msg"] = phase.cpu_us_per_msg;
  m["update_convergence_p50_ms"] =
      calm_quartile(convergence_by_group, false);
  m["switch_latency_p90_us"] = calm_quartile(switch_p90_by_group, false);
  // The medians over the intervals and groups, for comparison.
  result.notes["median_over_intervals.latency_p50_us"] =
      std::to_string(p50_by_interval.median());
  result.notes["median_over_intervals.latency_p90_us"] =
      std::to_string(p90_by_interval.median());
  result.notes["median_over_intervals.throughput_msg_s"] =
      std::to_string(throughput_by_interval.median());
  result.notes["median_over_intervals.update_convergence_p50_ms"] =
      std::to_string(convergence_by_group.median());
  result.notes["median_over_intervals.switch_latency_p90_us"] =
      std::to_string(switch_p90_by_group.median());
  result.notes["host_steal_pct"] =
      std::to_string(100.0 * steal_share(host_start, host_end));
  result.notes["latency_intervals"] = std::to_string(p90_by_interval.count());
  result.notes["latency_samples"] = std::to_string(pooled.count());
  result.notes["switch_latency_samples"] = std::to_string(
      after_request_pooled[0].count() + after_request_pooled[1].count());
  result.notes["switch_latency_groups"] =
      std::to_string(switch_p90_by_group.count());
  result.notes["update_groups"] =
      std::to_string(convergence_by_group.count());
  result.notes["updates"] = std::to_string(updates);
  result.notes["setup_repeats"] = std::to_string(setup_times.count());
  result.notes["first_delivery_ms_p50"] =
      std::to_string(first_delivery_ms.median());
  result.notes["messages_sent"] = std::to_string(messages_sent);
  result.notes["final_protocol"] = final_protocol;
  result.notes["stack_threads_pinned"] = w->pinned ? "yes" : "no";

  // ---- Per-layer metrics (whole phase, read after the join) -----------------
  MetricValues& l = phase.layers;
  const double msgs = static_cast<double>(w->delivered_total()) / kStacks;
  Histogram send_lag;
  Histogram call;
  Histogram loop_lag;
  double reissued = 0;
  double stale = 0;
  double ct_deliveries = 0;
  double ct_instances = 0;
  double rounds = 0;
  double aborted = 0;
  double decisions = 0;
  double sync_retries = 0;
  double relays = 0;
  double rp2p_msgs = 0;
  double datagrams = 0;
  double acks = 0;
  double retransmissions = 0;
  double nacks = 0;
  double fast_retransmits = 0;
  double false_suspicions = 0;
  for (const auto& a : w->apps) {
    send_lag.merge(a->send_lag);
    call.merge(a->abcast_call);
    loop_lag.merge(a->loop_lag);
    const dpu::StandardStack& s = a->modules;
    reissued += static_cast<double>(s.repl->reissued_total());
    stale += static_cast<double>(s.repl->stale_discarded());
    for (dpu::Module* mod : a->inner_modules) {
      if (const auto* ct = dynamic_cast<const dpu::CtAbcastModule*>(mod)) {
        ct_deliveries += static_cast<double>(ct->deliveries());
        ct_instances += static_cast<double>(ct->instances_settled());
      }
    }
    if (const auto* cons =
            dynamic_cast<const dpu::CtConsensusModule*>(s.consensus)) {
      rounds += static_cast<double>(cons->rounds_started());
      aborted += static_cast<double>(cons->rounds_aborted());
    }
    decisions += static_cast<double>(s.consensus->decisions_delivered());
    sync_retries += static_cast<double>(s.consensus->sync_retries());
    relays += static_cast<double>(s.rbcast->relays());
    rp2p_msgs += static_cast<double>(s.rp2p->messages_sent());
    datagrams += static_cast<double>(s.rp2p->data_datagrams_sent());
    acks += static_cast<double>(s.rp2p->acks_sent());
    retransmissions += static_cast<double>(s.rp2p->retransmissions());
    nacks += static_cast<double>(s.rp2p->nacks_sent());
    fast_retransmits += static_cast<double>(s.rp2p->fast_retransmits());
    false_suspicions += static_cast<double>(s.fd->false_suspicions());
  }
  const double upd = static_cast<double>(updates);
  l["app.send_lag_us.p99"] = send_lag.percentile(99.0) / 1e3;
  l["app.latency_us.p99"] = pooled.percentile(99.0) / 1e3;
  l["app.switch_latency_us.p99"] =
      mean_over_present(after_request_pooled, 99.0);
  l["repl.abcast_call_us.p50"] = call.percentile(50.0) / 1e3;
  l["repl.request_update_us"] = request_us.median();
  l["repl.completion_spread_ms"] = spread_ms.median();
  l["repl.reissued_per_update"] = ratio(reissued, upd);
  l["repl.stale_discarded_per_update"] = ratio(stale, upd);
  l["abcast.msgs_per_instance"] = ratio(ct_deliveries, ct_instances);
  l["consensus.rounds_per_instance"] = ratio(rounds, decisions);
  l["consensus.rounds_aborted"] = aborted;
  l["consensus.sync_retries"] = sync_retries;
  l["rbcast.relays_per_msg"] = ratio(relays, msgs);
  l["rp2p.msgs_per_datagram"] = ratio(rp2p_msgs, datagrams);
  l["rp2p.datagrams_per_msg"] = ratio(datagrams, msgs);
  l["rp2p.acks_per_msg"] = ratio(acks, msgs);
  l["rp2p.retransmissions_per_kmsg"] = ratio(retransmissions * 1000.0, msgs);
  l["rp2p.nacks"] = nacks;
  l["rp2p.fast_retransmits"] = fast_retransmits;
  const auto tx_sys = static_cast<double>(world.socket_tx_syscalls());
  const auto tx_dgrams = static_cast<double>(world.socket_tx_datagrams());
  l["rt.tx_syscalls_per_msg"] = ratio(tx_sys, msgs);
  l["rt.rx_syscalls_per_msg"] =
      ratio(static_cast<double>(world.socket_rx_syscalls()), msgs);
  l["rt.datagrams_per_tx_syscall"] = ratio(tx_dgrams, tx_sys);
  l["rt.loop_lag_us.p50"] = loop_lag.percentile(50.0) / 1e3;
  l["rt.loop_lag_us.p99"] = loop_lag.percentile(99.0) / 1e3;
  l["rt.packets_dropped"] = static_cast<double>(world.packets_dropped());
  // Routed datagrams that never reached a successful sendmmsg.
  l["rt.send_failures"] = static_cast<double>(world.packets_sent()) -
                          static_cast<double>(world.packets_dropped()) -
                          tx_dgrams;
  l["rt.bind_failures"] = static_cast<double>(ports.bind_failures);
  l["fd.false_suspicions"] = false_suspicions;
  l["process.cpu_user_us_per_msg"] = ratio(window_cpu.user_us, window_msgs);
  l["process.cpu_sys_us_per_msg"] = ratio(window_cpu.sys_us, window_msgs);

  if (traced) {
    // Link each completion span to its request span.
    for (const auto& a : w->apps) {
      for (Span& s : a->spans.spans()) {
        if (std::string_view(s.name) != "repl.update_complete") continue;
        const auto req = requests.find(s.request);
        if (req == requests.end()) continue;
        s.parent = req->second.span;
        s.start_ns = req->second.start_ns;
      }
    }
    std::vector<const SpanBuffer*> buffers{&control_spans};
    for (const auto& a : w->apps) buffers.push_back(&a->spans);
    l["trace.spans"] =
        static_cast<double>(write_spans(options.spans_out, buffers));
  }
  return phase;
}

}  // namespace

bool is_rt_workload(const std::string& name) {
  return name == "steady" || name == "switch";
}

bool is_known_workload(const std::string& name) {
  return is_rt_workload(name) || name == "campaign";
}

RunResult run_rt_workload(const Options& options) {
  PortRange ports(PortRange::derive(options.seed));
  std::vector<int> cpus = allowed_cpus();
  cpus.resize(std::min(cpus.size(), kStacks));
  IdleSpinners spinners(cpus);
  if (!options.trace) {
    Phase p = run_phase(options, options.seconds, false, ports, spinners);
    p.result.metrics["peak_rss_mb"] = peak_rss_mb();
    p.result.notes["port_base"] = std::to_string(ports.base());
    return std::move(p.result);
  }
  // Traced: an untraced half, then a traced half of the same shape; the
  // per-layer numbers come from the traced half, the overhead from both.
  const Phase plain =
      run_phase(options, options.seconds / 2, false, ports, spinners);
  Phase traced = run_phase(options, options.seconds / 2, true, ports, spinners);
  RunResult result;
  result.attempted = plain.result.attempted + traced.result.attempted;
  result.failed = plain.result.failed + traced.result.failed;
  result.problems = plain.result.problems;
  result.problems.insert(result.problems.end(), traced.result.problems.begin(),
                         traced.result.problems.end());
  result.notes = traced.result.notes;
  result.metrics = traced.layers;
  result.metrics["trace.overhead_pct"] =
      (ratio(traced.cpu_us_per_msg, plain.cpu_us_per_msg) - 1.0) * 100.0;
  result.metrics["failed_ratio"] = ratio(static_cast<double>(result.failed),
                                         static_cast<double>(result.attempted));
  zero_unmeasured_per_layer(result.metrics);
  return result;
}

}  // namespace perfbench
