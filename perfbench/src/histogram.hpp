// Fixed-size latency histogram for the rt workloads' per-delivery tallies.
//
// A run delivers some hundred thousand messages; keeping one sample per
// delivery would grow the benchmark's own memory with the run, inside the
// peak_rss_mb it reports.  A Histogram has the same size whatever it holds.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Log-linear histogram of non-negative durations in nanoseconds, laid out
/// as HdrHistogram does: values below 256 ns have a bucket each and are
/// exact, larger ones fall into buckets 1/256 to 1/128 of their value wide,
/// up to 2^40 ns (the last bucket takes anything larger).  A percentile
/// interpolates between closest ranks with a wide bucket's samples spread
/// evenly over it, so it is within 0.8% of the exact one.  The buckets are
/// allocated on the first add() (17 KiB).
class Histogram {
 public:
  void add(std::int64_t ns) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[index(ns > 0 ? static_cast<std::uint64_t>(ns) : 0)];
    ++total_;
  }

  void merge(const Histogram& other) {
    if (other.total_ == 0) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  [[nodiscard]] std::uint64_t count() const { return total_; }

  /// Value in nanoseconds at percentile p in [0,100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const {
    if (total_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(total_ - 1);
    const auto lo = static_cast<std::uint64_t>(rank);
    const std::uint64_t hi = lo + 1 < total_ ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return value_at(lo) * (1.0 - frac) + value_at(hi) * frac;
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kHalf = kSub / 2;
  static constexpr int kMaxShift = 40 - kSubBits;
  static constexpr std::size_t kBuckets = kSub + kMaxShift * kHalf;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return v;
    const int shift = std::bit_width(v) - kSubBits;  // >= 1
    if (shift > kMaxShift) return kBuckets - 1;
    return kSub + static_cast<std::size_t>(shift - 1) * kHalf +
           ((v >> shift) - kHalf);
  }

  /// Bucket i holds [lower(i), lower(i) + width(i)); width only for i >= kSub.
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t j = i - kSub;
    return static_cast<double>((j % kHalf + kHalf) << (j / kHalf + 1));
  }
  static double width(std::size_t i) {
    return static_cast<double>(std::uint64_t{1} << ((i - kSub) / kHalf + 1));
  }

  /// The rank-th smallest sample (0-based).
  [[nodiscard]] double value_at(std::uint64_t rank) const {
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (rank < below + counts_[i]) {
        if (i < kSub) return lower(i);  // one integer value per bucket
        const double within = (static_cast<double>(rank - below) + 0.5) /
                              static_cast<double>(counts_[i]);
        return lower(i) + width(i) * within;
      }
      below += counts_[i];
    }
    return lower(kBuckets - 1);
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace perfbench
