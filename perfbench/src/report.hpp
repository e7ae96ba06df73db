// Metric catalogue, result line, process counters and the in-memory span
// recorder shared by every perfbench workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by an untraced run (--trace 0), on every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"throughput_msg_s", "msg/s"},
    {"cpu_us_per_msg", "us"},
    {"peak_rss_mb", "MB"},
    {"update_convergence_p50_ms", "ms"},
    {"switch_latency_p90_us", "us"},
};

/// Reported by a traced run (--trace 1), on every workload.  A layer the
/// workload does not run reports 0 (README.md lists which apply where).
inline constexpr MetricSpec kPerLayer[] = {
    {"app.send_lag_us.p99", "us"},
    {"app.latency_us.p99", "us"},
    {"app.switch_latency_us.p99", "us"},
    {"repl.abcast_call_us.p50", "us"},
    {"repl.request_update_us", "us"},
    {"repl.completion_spread_ms", "ms"},
    {"repl.reissued_per_update", "count"},
    {"repl.stale_discarded_per_update", "count"},
    {"abcast.msgs_per_instance", "count"},
    {"consensus.rounds_per_instance", "count"},
    {"consensus.rounds_aborted", "count"},
    {"consensus.sync_retries", "count"},
    {"rbcast.relays_per_msg", "count"},
    {"rp2p.msgs_per_datagram", "count"},
    {"rp2p.datagrams_per_msg", "count"},
    {"rp2p.acks_per_msg", "count"},
    {"rp2p.retransmissions_per_kmsg", "count"},
    {"rp2p.nacks", "count"},
    {"rp2p.fast_retransmits", "count"},
    {"rt.tx_syscalls_per_msg", "count"},
    {"rt.rx_syscalls_per_msg", "count"},
    {"rt.datagrams_per_tx_syscall", "count"},
    {"rt.loop_lag_us.p50", "us"},
    {"rt.loop_lag_us.p99", "us"},
    {"rt.packets_dropped", "count"},
    {"rt.send_failures", "count"},
    {"rt.bind_failures", "count"},
    {"fd.false_suspicions", "count"},
    {"process.cpu_user_us_per_msg", "us"},
    {"process.cpu_sys_us_per_msg", "us"},
    {"sim.packets", "count"},
    {"sim.packets_per_s", "1/s"},
    {"sim.virtual_s_per_s", "s/s"},
    {"scenario.deliveries", "count"},
    {"scenario.run_ms.p50", "ms"},
    {"scenario.run_ms.max", "ms"},
    {"scenario.campaign_s", "s"},
    {"failed_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

using MetricValues = std::map<std::string, double>;

/// What one workload run hands back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricValues metrics;
  /// Human-readable correctness problems (printed to stderr).
  std::vector<std::string> problems;
  /// Run facts for the metadata line: sample counts, ports, digests.
  std::map<std::string, std::string> notes;

  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
};

/// The result line: {"correct","attempted","failed","metrics"} with every
/// metric of `specs`, in catalogue order.  Throws std::logic_error when a
/// metric is missing or unknown — a workload that forgets one is a bug.
[[nodiscard]] std::string result_line(const RunResult& result, bool traced);

/// Fills every per-layer metric the workload did not measure with 0.
void zero_unmeasured_per_layer(MetricValues& metrics);

/// Process CPU time from getrusage(RUSAGE_SELF), in microseconds.
struct CpuTimes {
  double user_us = 0.0;
  double sys_us = 0.0;
  [[nodiscard]] double total_us() const { return user_us + sys_us; }
};
[[nodiscard]] CpuTimes process_cpu();
/// Peak resident set size of the process so far, in MB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Host CPU accounting from the first line of /proc/stat (all CPUs), in
/// clock ticks; zeros where it cannot be read.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] HostTicks host_ticks();
/// Share of host CPU time stolen by the hypervisor between two readings.
[[nodiscard]] double steal_share(const HostTicks& from, const HostTicks& to);

[[nodiscard]] inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
/// Times are steady_clock nanoseconds; `parent` is another span's id (0 =
/// none); `request` groups the spans of one request (message key, update
/// number, scenario index).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Single-writer span buffer: one per stack thread plus one for the control
/// thread, so recording takes no lock.  Buffers are read only after the
/// threads that write them are joined.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t thread) : thread_(thread) {}

  /// Records a finished span and returns its id (unique across buffers).
  std::uint64_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t request = 0) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(thread_ + 1) << 40) | (spans_.size() + 1);
    spans_.push_back(
        Span{name, id, parent, request, start_ns, end_ns, thread_});
    return id;
  }

  /// Opens a span whose end is not known yet (a parent recorded before its
  /// children finish); close it with end().
  std::uint64_t begin(const char* name, std::int64_t start_ns,
                      std::uint64_t parent = 0, std::uint64_t request = 0) {
    return add(name, start_ns, start_ns, parent, request);
  }
  void end(std::uint64_t id, std::int64_t end_ns) {
    spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1].end_ns = end_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::vector<Span>& spans() { return spans_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

/// Writes every span of `buffers` as JSON lines to `path` (no-op for an
/// empty path).  Returns the number of spans written.
std::uint64_t write_spans(const std::string& path,
                          const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench
