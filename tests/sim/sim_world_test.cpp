// Tests for the discrete-event engine: virtual time, timers, the network
// model, the processor (busy-time) model, determinism, equal-time delivery
// order, and fault injection.
#include "sim/sim_world.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace dpu {
namespace {

TEST(SimWorld, TimerFiresAtRequestedVirtualTime) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();

  TimePoint fired_at = -1;
  host.set_timer(100 * kMillisecond, [&]() { fired_at = host.now(); });
  world.run_for(kSecond);
  EXPECT_EQ(fired_at, 100 * kMillisecond);
  EXPECT_EQ(world.now(), kSecond);
}

TEST(SimWorld, TimerWithZeroAndNegativeDelayFiresImmediately) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  int fired = 0;
  host.set_timer(0, [&]() { ++fired; });
  host.set_timer(-5, [&]() { ++fired; });  // clamped to 0
  world.run_for(1);
  EXPECT_EQ(fired, 2);
}

TEST(SimWorld, CancelledTimerDoesNotFire) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  bool fired = false;
  const TimerId id = host.set_timer(10 * kMillisecond, [&]() { fired = true; });
  host.cancel_timer(id);
  world.run_for(kSecond);
  EXPECT_FALSE(fired);
}

TEST(SimWorld, CancelIsIdempotentAndSafeAfterFire) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  int fired = 0;
  const TimerId id = host.set_timer(kMillisecond, [&]() { ++fired; });
  world.run_for(kSecond);
  EXPECT_EQ(fired, 1);
  host.cancel_timer(id);  // already fired: must be a no-op
  host.cancel_timer(id);
  world.run_for(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(SimWorld, SameDeadlineEventsRunInInsertionOrder) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    host.set_timer(kMillisecond, [&order, i]() { order.push_back(i); });
  }
  world.run_for(kSecond);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimWorld, PostRunsAfterCurrentEvent) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<int> order;
  host.set_timer(kMillisecond, [&]() {
    order.push_back(1);
    host.post([&]() { order.push_back(3); });
    order.push_back(2);
  });
  world.run_for(kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimWorld, TurnEndRunsAfterEachEventDriverStepAndBetweenRuns) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<std::string> order;
  // Between runs: ends at the start of the next run.
  host.at_turn_end([&]() { order.push_back("setup-end"); });
  // Node event: ends right after it, before a post()ed closure; a
  // callback requested from a callback joins the same turn end.
  host.set_timer(kMillisecond, [&]() {
    order.push_back("event");
    host.post([&]() { order.push_back("posted"); });
    host.at_turn_end([&]() {
      order.push_back("event-end");
      host.at_turn_end([&]() { order.push_back("nested-end"); });
    });
    const TurnEndId cancelled =
        host.at_turn_end([&]() { order.push_back("cancelled"); });
    host.cancel_turn_end(cancelled);
  });
  // Driver step: ends after the step.
  world.at(2 * kMillisecond, [&]() {
    order.push_back("driver");
    host.at_turn_end([&]() { order.push_back("driver-end"); });
  });
  // Crash: the dead stack's pending turn end is dropped.
  world.at(3 * kMillisecond, [&]() {
    world.stack(1).host().at_turn_end([&]() { order.push_back("dead-end"); });
    world.crash(1);
  });
  world.run_for(kSecond);
  EXPECT_EQ(order, (std::vector<std::string>{
                       "setup-end", "event", "event-end", "nested-end",
                       "posted", "driver", "driver-end"}));
}

TEST(SimWorld, PacketDeliveredWithinLatencyBounds) {
  SimConfig config{.num_stacks = 2, .seed = 7};
  config.net.min_latency = 50 * kMicrosecond;
  config.net.max_latency = 80 * kMicrosecond;
  SimWorld world(config);

  TimePoint sent_at = -1, recv_at = -1;
  NodeId from = kNoNode;
  world.stack(1).host().set_packet_handler(
      [&](NodeId src, const Payload& data) {
        recv_at = world.now();
        from = src;
        EXPECT_EQ(to_string(data), "hi");
      });
  world.at_node(kMillisecond, 0, [&]() {
    sent_at = world.now();
    world.stack(0).host().send_packet(1, to_bytes("hi"));
  });
  world.run_for(kSecond);

  ASSERT_GE(recv_at, 0);
  EXPECT_EQ(from, 0u);
  EXPECT_GE(recv_at - sent_at, 50 * kMicrosecond);
  // Upper bound plus receive-side CPU cost.
  EXPECT_LE(recv_at - sent_at, 90 * kMicrosecond);
}

TEST(SimWorld, SelfSendDelivered) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 3});
  int got = 0;
  world.stack(0).host().set_packet_handler(
      [&](NodeId src, const Payload&) {
        EXPECT_EQ(src, 0u);
        ++got;
      });
  world.at_node(0, 0,
                [&]() { world.stack(0).host().send_packet(0, to_bytes("x")); });
  world.run_for(kSecond);
  EXPECT_EQ(got, 1);
}

TEST(SimWorld, DropAllLosesEveryPacket) {
  SimConfig config{.num_stacks = 2, .seed = 5};
  config.net.drop_probability = 1.0;
  SimWorld world(config);
  int got = 0;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload&) { ++got; });
  world.at_node(0, 0, [&]() {
    for (int i = 0; i < 10; ++i) {
      world.stack(0).host().send_packet(1, to_bytes("x"));
    }
  });
  world.run_for(kSecond);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(world.packets_dropped(), 10u);
}

TEST(SimWorld, DuplicationDeliversTwice) {
  SimConfig config{.num_stacks = 2, .seed = 5};
  config.net.duplicate_probability = 1.0;
  SimWorld world(config);
  int got = 0;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload&) { ++got; });
  world.at_node(0, 0,
                [&]() { world.stack(0).host().send_packet(1, to_bytes("x")); });
  world.run_for(kSecond);
  EXPECT_EQ(got, 2);
}

TEST(SimWorld, LinkFilterPartitionsTraffic) {
  SimWorld world(SimConfig{.num_stacks = 3, .seed = 2});
  std::vector<int> got(3, 0);
  for (NodeId i = 0; i < 3; ++i) {
    world.stack(i).host().set_packet_handler(
        [&got, i](NodeId, const Payload&) { ++got[i]; });
  }
  // Partition {0} vs {1,2}.
  world.set_link_filter([](NodeId src, NodeId dst) {
    const bool src_side = src == 0;
    const bool dst_side = dst == 0;
    return src_side == dst_side;
  });
  world.at_node(0, 0, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("x"));
    world.stack(0).host().send_packet(0, to_bytes("x"));
  });
  world.at_node(0, 1, [&]() {
    world.stack(1).host().send_packet(2, to_bytes("x"));
    world.stack(1).host().send_packet(0, to_bytes("x"));
  });
  world.run_for(kSecond);
  EXPECT_EQ(got[0], 1);  // only its own loopback
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[2], 1);

  // Heal and verify traffic flows again.
  world.set_link_filter(nullptr);
  world.at_node(world.now(), 0,
                [&]() { world.stack(0).host().send_packet(1, to_bytes("x")); });
  world.run_for(kSecond);
  EXPECT_EQ(got[1], 1);
}

TEST(SimWorld, CrashedStackReceivesNothingAndRunsNothing) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 9});
  int timer_fired = 0, packets = 0;
  world.stack(1).host().set_packet_handler(
      [&](NodeId, const Payload&) { ++packets; });
  world.stack(1).host().set_timer(10 * kMillisecond,
                                  [&]() { ++timer_fired; });
  world.at(5 * kMillisecond, [&]() { world.crash(1); });
  world.at_node(6 * kMillisecond, 0, [&]() {
    world.stack(0).host().send_packet(1, to_bytes("x"));
  });
  world.run_for(kSecond);
  EXPECT_EQ(timer_fired, 0);
  EXPECT_EQ(packets, 0);
  EXPECT_TRUE(world.crashed(1));
  EXPECT_EQ(world.crashed_set(), std::set<NodeId>{1});
}

TEST(SimWorld, ChargeDelaysSubsequentEventsOnSameStack) {
  // The processor model: a handler that charges 10ms of CPU pushes the
  // stack's next event to t+10ms, modelling queueing under load.
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  std::vector<TimePoint> at;
  host.set_timer(kMillisecond, [&]() {
    at.push_back(host.now());
    host.charge(10 * kMillisecond);
  });
  host.set_timer(2 * kMillisecond, [&]() { at.push_back(host.now()); });
  world.run_for(kSecond);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], kMillisecond);
  EXPECT_EQ(at[1], 11 * kMillisecond);
}

TEST(SimWorld, ChargeDoesNotAffectOtherStacks) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 1});
  std::vector<TimePoint> at;
  world.stack(0).host().set_timer(kMillisecond, [&]() {
    world.stack(0).host().charge(50 * kMillisecond);
  });
  world.stack(1).host().set_timer(2 * kMillisecond, [&]() {
    at.push_back(world.now());
  });
  world.run_for(kSecond);
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 2 * kMillisecond);
}

TEST(SimWorld, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    SimConfig config{.num_stacks = 3, .seed = seed};
    config.net.drop_probability = 0.1;
    SimWorld world(config);
    std::vector<std::pair<NodeId, TimePoint>> deliveries;
    for (NodeId i = 0; i < 3; ++i) {
      world.stack(i).host().set_packet_handler(
          [&deliveries, &world, i](NodeId, const Payload&) {
            deliveries.emplace_back(i, world.now());
          });
    }
    for (int k = 0; k < 50; ++k) {
      world.at_node(k * kMillisecond, static_cast<NodeId>(k % 3), [&world, k]() {
        const NodeId src = static_cast<NodeId>(k % 3);
        const NodeId dst = static_cast<NodeId>((k + 1) % 3);
        world.stack(src).host().send_packet(dst, to_bytes("ping"));
      });
    }
    world.run_for(kSecond);
    return deliveries;
  };
  auto a = run(1234);
  auto b = run(1234);
  auto c = run(4321);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SimWorld, EventBudgetGuardStopsRunaway) {
  SimWorld world(SimConfig{.num_stacks = 1, .seed = 1});
  HostEnv& host = world.stack(0).host();
  // A self-perpetuating zero-delay loop.
  std::function<void()> loop = [&]() { host.post(loop); };
  host.post(loop);
  EXPECT_FALSE(world.run_until(kSecond, /*max_events=*/1000));
  EXPECT_GE(world.processed_events(), 1000u);
}

/// One observed delivery: (receiver, sender, virtual time, payload).
using Delivery = std::tuple<NodeId, NodeId, TimePoint, std::string>;

/// Installs a handler on every stack that appends each delivery to that
/// stack's log in `per_node`.
void log_deliveries(SimWorld& world,
                    std::vector<std::vector<Delivery>>& per_node) {
  per_node.assign(world.size(), {});
  for (NodeId i = 0; i < world.size(); ++i) {
    world.stack(i).host().set_packet_handler(
        [&per_node, &world, i](NodeId src, const Payload& data) {
          per_node[i].emplace_back(i, src, world.now(), to_string(data));
        });
  }
}

/// Zero jitter and zero CPU cost make every packet of a salvo arrive at
/// node 0 at the same instant.  The pending-buffer merge key (deliver_time,
/// src, dst, link_seq) — not the order the senders ran in — then decides
/// the delivery order: sender by sender, each sender's packets in send
/// order.  Senders run in decreasing node order, so "sorted by src" is a
/// real assertion; node 0's self-sends take the same path.
TEST(SimWorld, EqualTimeArrivalsOrderBySenderThenLinkSequence) {
  SimConfig config{.num_stacks = 8, .seed = 42};
  config.net.min_latency = 50 * kMicrosecond;
  config.net.max_latency = 50 * kMicrosecond;
  config.net.send_cost_fixed = 0;
  config.net.send_cost_per_byte_ns = 0;
  config.net.recv_cost_fixed = 0;
  config.net.recv_cost_per_byte_ns = 0;
  SimWorld world(config);
  std::vector<std::vector<Delivery>> per_node;
  log_deliveries(world, per_node);
  for (int salvo = 0; salvo < 3; ++salvo) {
    const TimePoint t = (salvo + 1) * kMillisecond;
    for (int s = 7; s >= 0; --s) {
      const auto src = static_cast<NodeId>(s);
      world.at_node(t, src, [&world, src, salvo]() {
        for (int k = 0; k < 4; ++k) {
          world.stack(src).host().send_packet(
              0, to_bytes("s" + std::to_string(salvo) + "k" +
                          std::to_string(k)));
        }
      });
    }
  }
  world.run_for(10 * kSecond);

  std::vector<Delivery> expected;
  for (int salvo = 0; salvo < 3; ++salvo) {
    const TimePoint arrival = (salvo + 1) * kMillisecond + 50 * kMicrosecond;
    for (NodeId src = 0; src < 8; ++src) {
      for (int k = 0; k < 4; ++k) {
        expected.emplace_back(
            0, src, arrival,
            "s" + std::to_string(salvo) + "k" + std::to_string(k));
      }
    }
  }
  EXPECT_EQ(per_node[0], expected);
}

/// Certain duplication with zero jitter and send cost: both copies of both
/// sends share (time, src, dst), so link_seq alone orders them — each copy
/// pair stays adjacent, in send order.
TEST(SimWorld, DuplicateCopiesKeepLinkSequenceOrder) {
  SimConfig config{.num_stacks = 4, .seed = 11};
  config.net.min_latency = 50 * kMicrosecond;
  config.net.max_latency = 50 * kMicrosecond;
  config.net.duplicate_probability = 1.0;
  config.net.send_cost_fixed = 0;
  config.net.send_cost_per_byte_ns = 0;
  config.net.recv_cost_fixed = 0;
  config.net.recv_cost_per_byte_ns = 0;
  SimWorld world(config);
  std::vector<std::vector<Delivery>> per_node;
  log_deliveries(world, per_node);
  for (NodeId src = 0; src < 4; ++src) {
    world.at_node(kMillisecond, src, [&world, src]() {
      world.stack(src).host().send_packet(1, to_bytes("dup"));
      world.stack(src).host().send_packet(1, to_bytes("dup2"));
    });
  }
  world.run_for(10 * kSecond);

  const TimePoint arrival = kMillisecond + 50 * kMicrosecond;
  std::vector<Delivery> expected;
  for (NodeId src = 0; src < 4; ++src) {
    for (const char* payload : {"dup", "dup", "dup2", "dup2"}) {
      expected.emplace_back(1, src, arrival, payload);
    }
  }
  EXPECT_EQ(per_node[1], expected);
}

/// A lossy all-to-all workload with per-link RNG draws and a
/// driver-scheduled crash and recovery: deliveries and the packet counters
/// that enter result documents repeat exactly.
TEST(SimWorld, LossyChurnWorkloadRepeatsExactly) {
  struct Observed {
    std::vector<Delivery> deliveries;
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_dropped = 0;
  };
  const auto observe = []() {
    SimConfig config{.num_stacks = 6, .seed = 7};
    config.net.drop_probability = 0.15;
    config.net.duplicate_probability = 0.05;
    SimWorld world(config);
    std::vector<std::vector<Delivery>> per_node;
    log_deliveries(world, per_node);
    for (int k = 0; k < 120; ++k) {
      const auto src = static_cast<NodeId>(k % 6);
      const auto dst = static_cast<NodeId>((k * 5 + 1) % 6);
      world.at_node(k * 100 * kMicrosecond, src, [&world, src, dst, k]() {
        world.stack(src).host().send_packet(
            dst, to_bytes("m" + std::to_string(k)));
      });
    }
    world.at(4 * kMillisecond, [&world]() { world.crash(3); });
    world.at(8 * kMillisecond, [&world]() {
      world.recover(3);
      world.stack(3).host().set_packet_handler([](NodeId, const Payload&) {});
    });
    world.run_for(10 * kSecond);
    Observed o;
    for (const auto& log : per_node) {
      o.deliveries.insert(o.deliveries.end(), log.begin(), log.end());
    }
    o.packets_sent = world.packets_sent();
    o.packets_dropped = world.packets_dropped();
    return o;
  };
  const Observed first = observe();
  const Observed second = observe();
  EXPECT_GT(first.deliveries.size(), 0u);
  EXPECT_GT(first.packets_dropped, 0u);
  EXPECT_EQ(first.deliveries, second.deliveries);
  EXPECT_EQ(first.packets_sent, second.packets_sent);
  EXPECT_EQ(first.packets_dropped, second.packets_dropped);
}

/// Packets in flight to a node when it recovers belong to its old
/// incarnation: both those already in the heap and those still waiting in
/// the pending buffer are purged, while traffic sent after the recovery
/// arrives normally.
TEST(SimWorld, RecoveryPurgesPacketsInFlightToTheNode) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 3});
  std::vector<std::string> got;
  // Heaped: sent by a node event, merged into the heap at the next window,
  // still 45-75us from delivery when node 1 recovers 10us later.
  world.at_node(kMillisecond, 0, [&world]() {
    world.stack(0).host().send_packet(1, to_bytes("heaped"));
  });
  world.at(kMillisecond + 10 * kMicrosecond, [&world, &got]() {
    // Pending: sent from driver context, so it has not reached the heap
    // when the recovery below runs.
    world.stack(0).host().send_packet(1, to_bytes("pending"));
    world.crash(1);
    world.recover(1);
    world.stack(1).host().set_packet_handler(
        [&got](NodeId, const Payload& data) {
          got.push_back(to_string(data));
        });
  });
  world.at_node(2 * kMillisecond, 0, [&world]() {
    world.stack(0).host().send_packet(1, to_bytes("after"));
  });
  world.run_for(kSecond);
  EXPECT_EQ(got, (std::vector<std::string>{"after"}));
}

TEST(SimWorld, PacketToStackWithoutHandlerIsDropped) {
  SimWorld world(SimConfig{.num_stacks = 2, .seed = 1});
  world.at_node(0, 0,
                [&]() { world.stack(0).host().send_packet(1, to_bytes("x")); });
  EXPECT_NO_THROW(world.run_for(kSecond));
}

}  // namespace
}  // namespace dpu
