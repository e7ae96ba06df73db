// The delivery check must catch every way a run can break uniform total
// order or exactly-once delivery.
#include <gtest/gtest.h>

#include "order_check.hpp"

namespace perfbench {
namespace {

/// Three stacks that delivered sender s's messages 0..per_sender-1 in the
/// same interleaved order.
std::vector<DeliveryLog> agreeing_logs(std::uint64_t per_sender) {
  std::vector<DeliveryLog> logs(3, DeliveryLog(3));
  for (DeliveryLog& log : logs) {
    for (std::uint64_t q = 0; q < per_sender; ++q) {
      for (std::uint32_t s = 0; s < 3; ++s) log.record(s, q);
    }
  }
  return logs;
}

TEST(DeliveryCheck, AgreeingLogsPass) {
  const auto logs = agreeing_logs(5);
  const DeliveryVerdict v = check_deliveries(logs, {5, 5, 5});
  EXPECT_EQ(v.failures(), 0U);
}

TEST(DeliveryCheck, ReorderedDeliveryIsCaught) {
  std::vector<DeliveryLog> logs = agreeing_logs(0);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    // Same messages everywhere; stack 2 swaps the first two.
    if (i == 2) {
      logs[i].record(1, 0);
      logs[i].record(0, 0);
    } else {
      logs[i].record(0, 0);
      logs[i].record(1, 0);
    }
  }
  const DeliveryVerdict v = check_deliveries(logs, {1, 1, 0});
  EXPECT_EQ(v.order_mismatches, 1U);
  EXPECT_EQ(v.missing, 0U);
  EXPECT_EQ(v.duplicates, 0U);
  EXPECT_EQ(v.failures(), 1U);
}

TEST(DeliveryCheck, DuplicateIsCaught) {
  auto logs = agreeing_logs(2);
  EXPECT_FALSE(logs[1].record(0, 1));
  const DeliveryVerdict v = check_deliveries(logs, {2, 2, 2});
  EXPECT_EQ(v.duplicates, 1U);
  EXPECT_EQ(v.order_mismatches, 0U);  // duplicates do not enter the hash
}

TEST(DeliveryCheck, MissingMessageIsCaught) {
  auto logs = agreeing_logs(2);
  // Sender 2 claims a third message nobody delivered.
  const DeliveryVerdict v = check_deliveries(logs, {2, 2, 3});
  EXPECT_EQ(v.missing, 3U);
}

TEST(DeliveryCheck, UnsentMessageIsCaught) {
  auto logs = agreeing_logs(2);
  const DeliveryVerdict v = check_deliveries(logs, {2, 2, 1});
  EXPECT_EQ(v.foreign, 3U);
  DeliveryLog out_of_range(3);
  EXPECT_FALSE(out_of_range.record(7, 0));
  EXPECT_EQ(out_of_range.foreign(), 1U);
}

}  // namespace
}  // namespace perfbench
