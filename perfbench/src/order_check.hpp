// Delivery-order and exactly-once check for the rt workloads.
//
// Every stack keeps a DeliveryLog fed from its abcast listener: a rolling,
// order-sensitive hash of the (sender, seq) sequence it delivered, plus a
// per-sender "seen" bitmap that catches duplicates.  After the stack
// threads are joined, check_deliveries() compares the logs: uniform total
// order means every stack delivered the same sequence (same count, same
// hash), and exactly-once means every sent message appears once at every
// stack and nothing else does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

class DeliveryLog {
 public:
  explicit DeliveryLog(std::size_t senders = 0) : seen_(senders) {}

  /// Records one delivery.  Returns false (and counts it) when the message
  /// was already delivered here or its sender is out of range.
  bool record(std::uint32_t sender, std::uint64_t seq) {
    if (sender >= seen_.size()) {
      ++foreign_;
      return false;
    }
    std::vector<bool>& bits = seen_[sender];
    if (seq >= bits.size()) {
      bits.resize(std::max<std::size_t>(seq + 1, bits.size() * 2));
    }
    if (bits[seq]) {
      ++duplicates_;
      return false;
    }
    bits[seq] = true;
    // FNV-1a over the 64-bit message key: any reordering changes the hash.
    hash_ ^= (static_cast<std::uint64_t>(sender) << 48) ^ seq;
    hash_ *= 0x100000001b3ULL;
    ++count_;
    return true;
  }

  [[nodiscard]] bool delivered(std::uint32_t sender, std::uint64_t seq) const {
    return sender < seen_.size() && seq < seen_[sender].size() &&
           seen_[sender][seq];
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t foreign() const { return foreign_; }

 private:
  std::vector<std::vector<bool>> seen_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t foreign_ = 0;
};

struct DeliveryVerdict {
  std::uint64_t missing = 0;     ///< (stack, message) pairs never delivered
  std::uint64_t duplicates = 0;  ///< repeated deliveries, all stacks
  std::uint64_t foreign = 0;     ///< deliveries of messages nobody sent
  /// Stacks whose delivered sequence differs from stack 0's.
  std::uint64_t order_mismatches = 0;

  [[nodiscard]] std::uint64_t failures() const {
    return missing + duplicates + foreign + order_mismatches;
  }
};

/// `sent[s]` is the number of messages sender s broadcast (seqs 0..sent-1).
[[nodiscard]] inline DeliveryVerdict check_deliveries(
    const std::vector<DeliveryLog>& logs,
    const std::vector<std::uint64_t>& sent) {
  DeliveryVerdict v;
  std::uint64_t expected = 0;
  for (const std::uint64_t s : sent) expected += s;
  for (const DeliveryLog& log : logs) {
    v.duplicates += log.duplicates();
    v.foreign += log.foreign();
    std::uint64_t present = 0;
    for (std::uint32_t s = 0; s < sent.size(); ++s) {
      for (std::uint64_t q = 0; q < sent[s]; ++q) {
        if (log.delivered(s, q)) ++present;
      }
    }
    v.missing += expected - present;
    // Delivered seqs beyond what a sender sent are foreign too.
    v.foreign += log.count() - present;
  }
  for (std::size_t i = 1; i < logs.size(); ++i) {
    if (logs[i].count() != logs[0].count() ||
        logs[i].hash() != logs[0].hash()) {
      ++v.order_mismatches;
    }
  }
  return v;
}

}  // namespace perfbench
