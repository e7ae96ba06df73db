// campaign: the curated simulator scenario library, run serially through
// run_scenario with the §5.1/§3 audits on — the path every correctness
// campaign and CI gate pays for.
//
// A run repeats whole passes (every curated scenario at one seed), rotating
// over kSeeds seeds derived from --seed (disjoint between --seed values),
// until --seconds have elapsed and every seed has run at least twice.  The
// simulator is deterministic, so every pass of a seed must produce the
// byte-identical result digest; a mismatch or any audit violation is a
// failure.  Wall-clock metrics are medians over passes; the protocol-level
// latency metrics are the simulator's virtual-time figures over the kSeeds
// seeds (more updates per run than one seed gives, so the run's figure
// moves less with the seed).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "app/stack_builder.hpp"
#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "sim/sim_world.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dpu::kMillisecond;
using dpu::NodeId;

/// Timed set-ups before every pass; setup_s is the median of all of them.
/// Spread over the run, they see the host as the passes do: 200 in a row at
/// the start of the run put the median of some runs at 37 µs and of most at
/// 55-60 µs (spread over ten runs 14%, interleaved 10%).
constexpr int kSetupsPerPass = 25;
constexpr std::size_t kSeeds = 4;
constexpr dpu::Duration kAfterRequestWindow = 50 * kMillisecond;
/// Latency buckets of 1 ms: with the library's sparse workloads a bucket
/// holds a message or a few, so its mean is close to the paper's per-message
/// latency (the mean over stacks) and a weighted percentile of bucket means
/// approximates the per-message percentile after each request.
constexpr dpu::Duration kBucketWidth = kMillisecond;

/// Sim set-up: the same Figure-4 composition as the rt workloads on three
/// simulated stacks, up to the first delivery at every stack.  Seconds.
double sim_setup_seconds(std::uint64_t seed) {
  const std::int64_t t0 = mono_ns();
  dpu::StandardStackOptions options;
  options.with_gm = false;
  const dpu::ProtocolLibrary library = dpu::make_standard_library(options);
  dpu::SimWorld world(dpu::SimConfig{.num_stacks = 3, .seed = seed}, &library);
  struct Counter final : dpu::AbcastListener {
    std::uint64_t n = 0;
    void adeliver(NodeId, const dpu::Bytes&) override { ++n; }
  };
  std::vector<Counter> counters(world.size());
  for (NodeId i = 0; i < world.size(); ++i) {
    (void)dpu::build_standard_stack(world.stack(i), options);
    world.stack(i).listen<dpu::AbcastListener>(dpu::kAbcastService,
                                               &counters[i],
                                               nullptr);
  }
  world.run_on_node(0, [&world]() {
    world.stack(0).require<dpu::AbcastApi>(dpu::kAbcastService).call(
        [](dpu::AbcastApi& api) { api.abcast(dpu::to_bytes("setup")); });
  });
  auto all_delivered = [&]() {
    return std::all_of(counters.begin(), counters.end(),
                       [](const Counter& c) { return c.n > 0; });
  };
  for (int step = 0; step < 10'000 && !all_delivered(); ++step) {
    world.run_for(kMillisecond);
  }
  if (!all_delivered()) {
    throw std::runtime_error("sim set-up probe never delivered");
  }
  return static_cast<double>(mono_ns() - t0) / 1e9;
}

/// No injected faults: the latency after a request in such a scenario is
/// the switch's own disruption, not a crash's or a partition's.
bool fault_free(const dpu::scenario::ScenarioSpec& spec) {
  return spec.crashes.empty() && spec.recoveries.empty() &&
         spec.late_joins.empty() && spec.partitions.empty() &&
         spec.loss_windows.empty() &&
         spec.base_drop == 0.0 && spec.base_duplicate == 0.0;
}

/// Virtual-time protocol figures of a pass (identical in every pass, so
/// only the first pass collects them).
struct Protocol {
  dpu::Samples latency_us;
  dpu::Samples convergence_ms;
  /// (bucket mean, messages in bucket) of the 1 ms buckets in the 50 ms
  /// after every update request of a fault-free scenario.
  std::vector<std::pair<double, double>> after_request;
  double reissued = 0;
  double stale = 0;
  double acks = 0;
  double retransmissions = 0;
  double updates = 0;

  void merge(const Protocol& o) {
    latency_us.merge(o.latency_us);
    convergence_ms.merge(o.convergence_ms);
    after_request.insert(after_request.end(), o.after_request.begin(),
                         o.after_request.end());
    reissued += o.reissued;
    stale += o.stale;
    acks += o.acks;
    retransmissions += o.retransmissions;
    updates += o.updates;
  }
};

struct Pass {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double messages = 0;    ///< abcast messages delivered at every stack
  double deliveries = 0;  ///< abcast deliveries, all stacks (exact count)
  double packets = 0;
  double virtual_s = 0;
  CpuTimes cpu;
  std::vector<double> run_ms;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t failed = 0;
  Protocol protocol;  ///< filled on the first pass of each seed only
};

Pass run_pass(const std::vector<dpu::scenario::ScenarioSpec>& specs,
              std::uint64_t seed, bool collect, SpanBuffer* spans,
              std::uint64_t pass_no, std::vector<std::string>& problems) {
  dpu::scenario::RunOptions run_options;
  run_options.bucket_width = kBucketWidth;
  Pass pass;
  pass.seed = seed;
  const std::uint64_t pass_span =
      spans != nullptr ? spans->begin("campaign.pass", mono_ns(), 0, pass_no)
                       : 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Only run_scenario is timed; the checks and tallies below are not.
    const CpuTimes c0 = process_cpu();
    const std::int64_t s0 = mono_ns();
    dpu::scenario::ScenarioResult r =
        dpu::scenario::run_scenario(specs[i], seed, run_options);
    const std::int64_t s1 = mono_ns();
    const CpuTimes c1 = process_cpu();
    if (spans != nullptr) spans->add("scenario.run", s0, s1, pass_span, i);
    pass.run_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
    pass.wall_s += static_cast<double>(s1 - s0) / 1e9;
    pass.cpu.user_us += c1.user_us - c0.user_us;
    pass.cpu.sys_us += c1.sys_us - c0.sys_us;
    if (!r.ok()) {
      ++pass.failed;
      std::string why = "audit violation in " + specs[i].name +
                        " at scenario seed " + std::to_string(seed);
      for (const dpu::PropertyReport* report :
           {&r.abcast_report, &r.generic_report}) {
        for (const std::string& v : report->violations) why += ": " + v;
      }
      problems.push_back(why);
    }
    for (const char c : r.to_json().dump()) {
      pass.digest ^= static_cast<std::uint8_t>(c);
      pass.digest *= 0x100000001b3ULL;
    }
    pass.messages += static_cast<double>(r.deliveries) /
                     static_cast<double>(specs[i].n);
    pass.deliveries += static_cast<double>(r.deliveries);
    pass.packets += static_cast<double>(r.packets_sent);
    pass.virtual_s += static_cast<double>(r.total_virtual_time) / 1e9;
    if (!collect) continue;  // identical in every pass of a seed
    Protocol& p = pass.protocol;
    p.latency_us.merge(r.collector->all());
    const dpu::TimeSeries& series = r.collector->series();
    for (const dpu::scenario::UpdateOutcome& u : r.updates) {
      p.convergence_ms.add(dpu::to_millis(u.convergence()));
      if (!fault_free(specs[i])) continue;
      for (std::size_t b = static_cast<std::size_t>(u.requested / kBucketWidth);
           b < series.bucket_count() &&
           series.bucket_start(b) < u.requested + kAfterRequestWindow;
           ++b) {
        const dpu::OnlineStats& st = series.bucket(b);
        if (st.count() > 0) {
          p.after_request.emplace_back(st.mean(),
                                       static_cast<double>(st.count()));
        }
      }
    }
    p.reissued += static_cast<double>(r.reissued);
    p.stale += static_cast<double>(r.stale_discarded);
    p.acks += static_cast<double>(r.acks_sent);
    p.retransmissions += static_cast<double>(r.retransmissions);
    p.updates += static_cast<double>(r.updates.size());
  }
  if (spans != nullptr) spans->end(pass_span, mono_ns());
  return pass;
}

/// Count-weighted percentile of (value, weight) pairs.
double weighted_percentile(std::vector<std::pair<double, double>> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double total = 0;
  for (const auto& [value, w] : v) total += w;
  const double target = p / 100.0 * total;
  double acc = 0;
  for (const auto& [value, w] : v) {
    acc += w;
    if (acc >= target) return value;
  }
  return v.back().first;
}

struct Passes {
  std::vector<Pass> passes;
  dpu::Samples setup_s;
  double host_steal_share = 0.0;
  std::uint64_t runs = 0;  ///< scenario runs, all passes
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// The median of `f` over the passes.
  [[nodiscard]] double pass_median(double (*f)(const Pass&)) const {
    dpu::Samples v;
    for (const Pass& p : passes) v.add(f(p));
    return v.median();
  }

  /// The virtual-time figures of all seeds.
  [[nodiscard]] Protocol protocol() const {
    Protocol merged;
    for (std::size_t i = 0; i < kSeeds && i < passes.size(); ++i) {
      merged.merge(passes[i].protocol);
    }
    return merged;
  }

  /// A sum over the first pass of every seed (exact counts).
  [[nodiscard]] double seed_total(double Pass::*field) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < kSeeds && i < passes.size(); ++i) {
      sum += passes[i].*field;
    }
    return sum;
  }
};

Passes run_passes(const Options& options, double seconds, SpanBuffer* spans) {
  const std::vector<dpu::scenario::ScenarioSpec> specs =
      dpu::scenario::curated_scenarios();
  Passes out;
  const HostTicks host0 = host_ticks();
  const std::int64_t t0 = mono_ns();
  while (out.passes.size() < 2 * kSeeds ||
         static_cast<double>(mono_ns() - t0) / 1e9 < seconds) {
    const std::size_t k = out.passes.size();
    for (int i = 0; i < kSetupsPerPass; ++i) {
      out.setup_s.add(sim_setup_seconds(options.seed + out.setup_s.count()));
    }
    // Seeds kSeeds*seed .. kSeeds*seed+kSeeds-1: runs at different --seed
    // values share no scenario seed.
    out.passes.push_back(run_pass(specs, options.seed * kSeeds + k % kSeeds,
                                  k < kSeeds,
                                  spans, k, out.problems));
    out.runs += specs.size();
    out.failed += out.passes.back().failed;
    if (out.passes.back().digest != out.passes[k % kSeeds].digest) {
      ++out.failed;
      out.problems.push_back("pass " + std::to_string(k) +
                             " result digest differs from pass " +
                             std::to_string(k % kSeeds));
    }
  }
  out.host_steal_share = steal_share(host0, host_ticks());
  return out;
}

}  // namespace

RunResult run_campaign_workload(const Options& options) {
  RunResult result;
  if (!options.trace) {
    Passes run = run_passes(options, options.seconds, nullptr);
    Protocol proto = run.protocol();
    MetricValues& m = result.metrics;
    m["setup_s"] = run.setup_s.median();
    m["latency_p50_us"] = proto.latency_us.percentile(50.0);
    m["latency_p90_us"] = proto.latency_us.percentile(90.0);
    m["throughput_msg_s"] = run.pass_median(
        [](const Pass& p) { return ratio(p.messages, p.wall_s); });
    m["cpu_us_per_msg"] = run.pass_median(
        [](const Pass& p) { return ratio(p.cpu.total_us(), p.messages); });
    m["peak_rss_mb"] = peak_rss_mb();
    m["update_convergence_p50_ms"] = proto.convergence_ms.median();
    m["switch_latency_p90_us"] = weighted_percentile(proto.after_request, 90.0);
    result.attempted = run.runs;
    result.failed = run.failed;
    result.problems = run.problems;
    result.notes["passes"] = std::to_string(run.passes.size());
    result.notes["host_steal_pct"] =
        std::to_string(100.0 * run.host_steal_share);
    result.notes["latency_samples"] = std::to_string(proto.latency_us.count());
    result.notes["updates"] = std::to_string(proto.convergence_ms.count());
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < kSeeds; ++i) {
      digest ^= run.passes[i].digest * (i + 1);
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    result.notes["digest"] = hex;
    return result;
  }

  // Traced: an untraced half, then a traced half with a span per pass and
  // per run_scenario call.
  const Passes plain = run_passes(options, options.seconds / 2, nullptr);
  SpanBuffer spans(0);
  const Passes traced = run_passes(options, options.seconds / 2, &spans);
  result.attempted = plain.runs + traced.runs;
  result.failed = plain.failed + traced.failed;
  result.problems = plain.problems;
  result.problems.insert(result.problems.end(), traced.problems.begin(),
                         traced.problems.end());
  for (std::size_t i = 0; i < kSeeds; ++i) {
    if (plain.passes[i].digest != traced.passes[i].digest) {
      ++result.failed;
      result.problems.push_back("traced passes differ from untraced passes");
    }
  }
  Protocol proto = traced.protocol();
  const double messages = traced.seed_total(&Pass::messages);
  const auto wall_s = [](const Pass& p) { return p.wall_s; };
  const double wall = traced.pass_median(wall_s);
  const double plain_wall = plain.pass_median(wall_s);
  const double seed_wall = traced.seed_total(&Pass::wall_s);
  dpu::Samples run_ms;
  for (const Pass& p : traced.passes) {
    for (const double ms : p.run_ms) run_ms.add(ms);
  }
  MetricValues& l = result.metrics;
  l["app.latency_us.p99"] = proto.latency_us.percentile(99.0);
  l["app.switch_latency_us.p99"] =
      weighted_percentile(proto.after_request, 99.0);
  l["repl.reissued_per_update"] = ratio(proto.reissued, proto.updates);
  l["repl.stale_discarded_per_update"] = ratio(proto.stale, proto.updates);
  l["rp2p.acks_per_msg"] = ratio(proto.acks, messages);
  l["rp2p.retransmissions_per_kmsg"] =
      ratio(proto.retransmissions * 1000.0, messages);
  l["process.cpu_user_us_per_msg"] = traced.pass_median(
      [](const Pass& p) { return ratio(p.cpu.user_us, p.messages); });
  l["process.cpu_sys_us_per_msg"] = traced.pass_median(
      [](const Pass& p) { return ratio(p.cpu.sys_us, p.messages); });
  l["sim.packets"] = traced.seed_total(&Pass::packets);
  l["sim.packets_per_s"] = ratio(traced.seed_total(&Pass::packets), seed_wall);
  l["sim.virtual_s_per_s"] =
      ratio(traced.seed_total(&Pass::virtual_s), seed_wall);
  l["scenario.deliveries"] = traced.seed_total(&Pass::deliveries);
  l["scenario.run_ms.p50"] = run_ms.median();
  l["scenario.run_ms.max"] = run_ms.max();
  l["scenario.campaign_s"] = wall;
  l["failed_ratio"] = ratio(static_cast<double>(result.failed),
                            static_cast<double>(result.attempted));
  l["trace.overhead_pct"] = (ratio(wall, plain_wall) - 1.0) * 100.0;
  l["trace.spans"] =
      static_cast<double>(write_spans(options.spans_out, {&spans}));
  zero_unmeasured_per_layer(l);
  result.notes["passes"] = std::to_string(traced.passes.size());
  return result;
}

}  // namespace perfbench
