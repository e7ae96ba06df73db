// perfbench — the repository benchmark program.
//
//   perfbench --workload steady|switch|campaign --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints one metadata line (seed, hardware, sample counts) and then, as the
// last line of standard output, the result object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 0 when every correctness check passed, 1 when one
// failed (the result line is still printed), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "scenario/json.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload steady|switch|campaign "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (!perfbench::is_known_workload(options.workload) || options.seconds <= 0) {
    return usage();
  }

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", p.c_str());
  }

  dpu::scenario::Json meta = dpu::scenario::Json::object();
  meta.set("workload", options.workload);
  meta.set("seed", options.seed);
  meta.set("seconds", options.seconds);
  meta.set("trace", options.trace);
  meta.set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  meta.set("commit", commit != nullptr ? commit : "unknown");
  for (const auto& [key, value] : result.notes) meta.set(key, value);
  dpu::scenario::Json wrapper = dpu::scenario::Json::object();
  wrapper.set("perfbench", std::move(meta));
  std::printf("%s\n", wrapper.dump().c_str());
  std::printf("%s\n", perfbench::result_line(result, options.trace).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
