#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <span>
#include <stdexcept>

#include "scenario/json.hpp"

namespace perfbench {

using dpu::scenario::Json;

std::string result_line(const RunResult& result, bool traced) {
  const std::span<const MetricSpec> specs =
      traced ? std::span<const MetricSpec>(kPerLayer)
             : std::span<const MetricSpec>(kEndToEnd);
  Json metrics = Json::object();
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      throw std::logic_error(std::string("metric not measured: ") + spec.name);
    }
    Json m = Json::object();
    m.set("value", it->second);
    m.set("unit", spec.unit);
    metrics.set(spec.name, std::move(m));
  }
  for (const auto& [name, value] : result.metrics) {
    const bool known =
        std::any_of(specs.begin(), specs.end(),
                    [&](const MetricSpec& s) { return name == s.name; });
    if (!known) throw std::logic_error("metric not in the catalogue: " + name);
  }
  Json line = Json::object();
  line.set("correct", result.correct());
  line.set("attempted", result.attempted);
  line.set("failed", result.failed);
  line.set("metrics", std::move(metrics));
  return line.dump();
}

void zero_unmeasured_per_layer(MetricValues& metrics) {
  for (const MetricSpec& spec : kPerLayer) metrics.try_emplace(spec.name, 0.0);
}

CpuTimes process_cpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return CpuTimes{us(ru.ru_utime), us(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  HostTicks t;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return HostTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::uint64_t write_spans(const std::string& path,
                          const std::vector<const SpanBuffer*>& buffers) {
  std::uint64_t total = 0;
  for (const SpanBuffer* b : buffers) total += b->spans().size();
  if (path.empty()) return total;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      Json j = Json::object();
      j.set("name", s.name);
      j.set("id", s.id);
      j.set("parent", s.parent);
      j.set("request", s.request);
      j.set("thread", static_cast<std::uint64_t>(s.thread));
      j.set("start_ns", s.start_ns);
      j.set("end_ns", s.end_ns);
      out << j.dump() << '\n';
    }
  }
  return total;
}

}  // namespace perfbench
