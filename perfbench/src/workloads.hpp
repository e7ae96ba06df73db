// The three perfbench workloads (README.md gives each one's rationale).
//
//   steady, switch           — the paper's Figure-4 stack on the real-time
//                              engine over loopback UDP sockets
//                              (rt_workloads.cpp)
//   campaign                 — the curated simulator scenario library
//                              (campaign_workload.cpp)
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time of the run (set-up not included).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = keep them
  /// in memory only.
  std::string spans_out;
};

[[nodiscard]] bool is_rt_workload(const std::string& name);
[[nodiscard]] bool is_known_workload(const std::string& name);

/// Runs steady or switch.
[[nodiscard]] RunResult run_rt_workload(const Options& options);

/// Runs the campaign workload.
[[nodiscard]] RunResult run_campaign_workload(const Options& options);

[[nodiscard]] inline RunResult run_workload(const Options& options) {
  return is_rt_workload(options.workload) ? run_rt_workload(options)
                                          : run_campaign_workload(options);
}

/// a / b, or 0 when b is 0 (metrics must stay finite).
[[nodiscard]] inline double ratio(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

}  // namespace perfbench
