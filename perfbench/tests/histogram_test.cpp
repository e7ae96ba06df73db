// The fixed-size latency histogram must give the exact percentiles within
// its stated precision.
#include <gtest/gtest.h>

#include <cmath>

#include "histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

TEST(Histogram, EmptyIsZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::int64_t v = 0; v < 200; ++v) h.add(v);
  h.add(-5);  // clamped to 0
  EXPECT_EQ(h.count(), 201U);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(50.0), 99.0);
  EXPECT_EQ(h.percentile(100.0), 199.0);
}

TEST(Histogram, PercentilesWithinPrecisionOfExact) {
  dpu::Rng rng(42);
  Histogram h;
  dpu::Samples exact;
  for (int i = 0; i < 200000; ++i) {
    // Log-normal around 1 ms with a long tail, like a delivery latency.
    const double u1 = rng.uniform01();
    const double u2 = rng.uniform01();
    const double z =
        std::sqrt(-2.0 * std::log1p(-u1)) * std::cos(2.0 * M_PI * u2);
    const auto ns = static_cast<std::int64_t>(1e6 * std::exp(0.5 * z));
    h.add(ns);
    exact.add(static_cast<double>(ns));
  }
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double want = exact.percentile(p);
    EXPECT_NEAR(h.percentile(p), want, want * 0.008) << "p" << p;
  }
}

TEST(Histogram, MergeEqualsOneHistogramOfBoth) {
  Histogram a;
  Histogram b;
  Histogram both;
  for (std::int64_t v = 1; v < 100000; v += 7) {
    (v % 3 == 0 ? a : b).add(v * 13);
    both.add(v * 13);
  }
  Histogram merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), both.count());
  for (const double p : {0.0, 25.0, 50.0, 90.0, 100.0}) {
    EXPECT_EQ(merged.percentile(p), both.percentile(p));
  }
}

}  // namespace
}  // namespace perfbench
