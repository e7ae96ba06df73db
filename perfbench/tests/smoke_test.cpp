// Short run of every workload, untraced and traced: every catalogue metric
// is reported, every value is finite, and nothing failed.
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dpu::scenario::Json;

struct Case {
  const char* workload;
  double seconds;
};

class Smoke : public ::testing::TestWithParam<Case> {};

void expect_complete(const Options& options) {
  const RunResult result = run_workload(options);
  for (const std::string& p : result.problems) ADD_FAILURE() << p;
  EXPECT_GT(result.attempted, 0U);
  EXPECT_EQ(result.failed, 0U);
  const Json line = Json::parse(result_line(result, options.trace));
  EXPECT_TRUE(line.at("correct").as_bool());
  const Json& metrics = line.at("metrics");
  const auto check = [&](const MetricSpec& spec) {
    const Json* m = metrics.find(spec.name);
    ASSERT_NE(m, nullptr) << spec.name;
    EXPECT_EQ(m->at("unit").as_string(), spec.unit);
    EXPECT_TRUE(std::isfinite(m->at("value").as_double())) << spec.name;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) check(spec);
    EXPECT_EQ(metrics.at("failed_ratio").at("value").as_double(), 0.0);
    EXPECT_GT(metrics.at("trace.spans").at("value").as_double(), 0.0);
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      check(spec);
      EXPECT_GT(metrics.at(spec.name).at("value").as_double(), 0.0)
          << spec.name;
    }
  }
}

TEST_P(Smoke, EndToEnd) {
  Options options;
  options.workload = GetParam().workload;
  options.seed = 7;
  options.seconds = GetParam().seconds;
  expect_complete(options);
}

TEST_P(Smoke, Traced) {
  Options options;
  options.workload = GetParam().workload;
  options.seed = 7;
  options.seconds = 2 * GetParam().seconds;
  options.trace = true;
  expect_complete(options);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values(Case{"steady", 2.0},
                                           Case{"switch", 2.5},
                                           Case{"campaign", 0.1}),
                         [](const auto& info) {
                           return std::string(info.param.workload);
                         });

TEST(Campaign, CountsRepeatExactly) {
  Options options;
  options.workload = "campaign";
  options.seed = 3;
  options.seconds = 0.1;
  const RunResult a = run_workload(options);
  const RunResult b = run_workload(options);
  EXPECT_EQ(a.failed, 0U);
  EXPECT_EQ(a.notes.at("digest"), b.notes.at("digest"));
  EXPECT_EQ(a.metrics.at("latency_p90_us"), b.metrics.at("latency_p90_us"));
}

}  // namespace
}  // namespace perfbench
