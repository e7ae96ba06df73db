// Universal state transfer: every replaceable layer survives a node that
// crashes *mid-switch* and recovers with fresh protocol state.  One
// parameterized schedule runs against each layer's replacement facade
// (repl-abcast, repl-rbcast, repl-gm, repl-consensus); the recovered stack
// must converge to the switched protocol and the full property audit —
// including exactly-once delivery across the restart — must hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace dpu::scenario {
namespace {

struct LayerCase {
  const char* label;          ///< test name suffix
  Mechanism mechanism;        ///< spec-level mechanism (primary layer)
  const char* initial;        ///< spec.initial_protocol
  const char* update;         ///< protocol switched to mid-run
  const char* final_expected; ///< what every stack must end on
};

class StateTransferTest : public ::testing::TestWithParam<LayerCase> {};

/// Five stacks; the switch is requested at 2 s, node 3 crashes 5 ms later
/// (inside the switch window) and recovers at 4 s with a fresh stack.
ScenarioSpec mid_switch_crash_spec(const LayerCase& c) {
  ScenarioSpec spec;
  spec.name = std::string("state-transfer-") + c.label;
  spec.n = 5;
  spec.duration = 6 * kSecond;
  spec.drain = 30 * kSecond;
  spec.workload.rate_per_stack = 20.0;
  spec.mechanism = c.mechanism;
  spec.initial_protocol = c.initial;
  spec.updates = {{2 * kSecond, 0, c.update}};
  spec.crashes = {{2 * kSecond + 5 * kMillisecond, 3}};
  spec.recoveries = {{4 * kSecond, 3}};
  return spec;
}

TEST_P(StateTransferTest, CrashMidSwitchRecoversAndConverges) {
  const LayerCase& c = GetParam();
  const ScenarioSpec spec = mid_switch_crash_spec(c);
  const ScenarioResult result = run_scenario(spec, 41);
  // The audit is the exactly-once witness: uniform agreement + integrity
  // over the union of live incarnations, with the recovered node held to
  // the full history like any correct stack.
  EXPECT_TRUE(result.abcast_report.ok)
      << c.label << ": " << result.abcast_report.summary();
  EXPECT_TRUE(result.generic_report.ok)
      << c.label << ": " << result.generic_report.summary();
  EXPECT_TRUE(result.crashed.empty()) << c.label;
  EXPECT_EQ(result.recovered, std::set<NodeId>{3}) << c.label;
  for (NodeId i = 0; i < spec.n; ++i) {
    EXPECT_EQ(result.final_protocol[i], c.final_expected)
        << c.label << ": stack " << i;
  }
  EXPECT_GT(result.messages_sent, 0u) << c.label;
  EXPECT_GT(result.deliveries, 0u) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, StateTransferTest,
    ::testing::Values(
        LayerCase{"abcast", Mechanism::kRepl, "abcast.ct", "abcast.seq",
                  "abcast.seq"},
        LayerCase{"rbcast", Mechanism::kReplRbcast, "rbcast.eager",
                  "rbcast.norelay", "rbcast.norelay"},
        LayerCase{"gm", Mechanism::kReplGm, "gm.abcast", "gm.abcast",
                  "gm.abcast"},
        LayerCase{"consensus", Mechanism::kReplConsensus, "consensus.ct",
                  "consensus.mr", "consensus.mr"}),
    [](const ::testing::TestParamInfo<LayerCase>& info) {
      return std::string(info.param.label);
    });

TEST(StateTransfer, LateJoinConvergesLikeARecovery) {
  // A node that was never part of the run joins at 3 s — after a switch it
  // never saw — and must converge through the same state-transfer path.
  ScenarioSpec spec;
  spec.name = "state-transfer-late-join";
  spec.n = 5;
  spec.duration = 6 * kSecond;
  spec.drain = 30 * kSecond;
  spec.workload.rate_per_stack = 20.0;
  spec.updates = {{2 * kSecond, 0, "abcast.seq"}};
  spec.late_joins = {{3 * kSecond, 4}};
  const ScenarioResult result = run_scenario(spec, 43);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_TRUE(result.crashed.empty());
  EXPECT_EQ(result.recovered, std::set<NodeId>{4});
  for (NodeId i = 0; i < spec.n; ++i) {
    EXPECT_EQ(result.final_protocol[i], "abcast.seq") << "stack " << i;
  }
  // The joiner pulled a snapshot from a peer and replayed it.
  EXPECT_GT(result.snapshots_served, 0u);
  EXPECT_GT(result.state_replayed, 0u);
}

/// churn-rbcast seeds where the recovering stack's 150 ms retry rotation
/// had two responders launch refresh switches under the same version.  The
/// rbcast facade orders nothing, so each responder performed the *other*
/// refresh first and saw its own arrive stale; both relaunched instead of
/// serving a snapshot, and the requester entered two versions later,
/// skipping an instance every other stack bound.  Each responder must now
/// serve its requester at the refresh that won, which is the earliest one
/// launched for it.
class RefreshRaceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefreshRaceTest, RecoveringStackEntersAtTheEarliestRefresh) {
  const std::optional<ScenarioSpec> spec = find_scenario("churn-rbcast");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult result = run_scenario(*spec, GetParam());
  EXPECT_TRUE(result.abcast_report.ok) << result.abcast_report.summary();
  EXPECT_TRUE(result.generic_report.ok) << result.generic_report.summary();
  EXPECT_EQ(result.recovered, (std::set<NodeId>{2, 4}));
}

INSTANTIATE_TEST_SUITE_P(ChurnRbcastSeeds, RefreshRaceTest,
                         ::testing::Values(101u, 118u, 199u, 200u));

TEST(StateTransfer, RecoveryLaunchesExactlyOneRefreshSwitch) {
  // A recovering churn-rbcast stack charges 8 x 20 ms of module creation
  // while it composes, longer than the 150 ms sync_retry, and its state
  // request leaves only once that CPU is spent.  The retry timer counts
  // from then (the busy horizon), so the requester does not rotate to a
  // second responder: one refresh switch, one snapshot, per recovery.
  const std::optional<ScenarioSpec> spec = find_scenario("churn-rbcast");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult result = run_scenario(*spec, 101);
  EXPECT_TRUE(result.ok()) << result.abcast_report.summary() << "\n"
                           << result.generic_report.summary();
  EXPECT_EQ(result.recovered, (std::set<NodeId>{2, 4}));
  EXPECT_EQ(result.snapshots_served, result.recovered.size());
}

TEST(StateTransfer, RecoveryWithoutStateTransferCapabilityIsRejected) {
  // The runner enforces the registry capability: a maestro-managed abcast
  // cannot host recoveries (validate() already rejects it, proving the
  // spec-level rule; the runner's registry check backs it for file-loaded
  // specs that skip curation).
  ScenarioSpec spec;
  spec.name = "no-state-transfer";
  spec.n = 5;
  spec.duration = 4 * kSecond;
  spec.mechanism = Mechanism::kMaestro;
  spec.crashes = {{kSecond, 3}};
  spec.recoveries = {{2 * kSecond, 3}};
  EXPECT_THROW((void)run_scenario(spec, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dpu::scenario
