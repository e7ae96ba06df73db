// Tests for the reliable point-to-point layer: exactly-once FIFO delivery
// under loss, duplication and reordering, plus the pending-channel buffer
// that dynamic protocol update relies on.
#include "net/rp2p.hpp"

#include <gtest/gtest.h>

#include "net/udp_module.hpp"
#include "sim/sim_world.hpp"

namespace dpu {
namespace {

constexpr ChannelId kChan = 42;

struct Rig {
  explicit Rig(SimConfig config) : world(config) {
    for (NodeId i = 0; i < world.size(); ++i) {
      udp.push_back(UdpModule::create(world.stack(i)));
      Rp2pModule::Config rc;
      rc.retransmit_interval = 5 * kMillisecond;
      rp2p.push_back(Rp2pModule::create(world.stack(i), kRp2pService, rc));
      world.stack(i).start_all();
    }
  }

  SimWorld world;
  std::vector<UdpModule*> udp;
  std::vector<Rp2pModule*> rp2p;
};

TEST(Rp2p, DeliversInOrderOnCleanNetwork) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 1});
  std::vector<int> got;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId src, const Payload& p) {
    EXPECT_EQ(src, 0u);
    BufReader r(p);
    got.push_back(static_cast<int>(r.get_u32()));
  });
  rig.world.at_node(0, 0, [&]() {
    for (int i = 0; i < 100; ++i) {
      BufWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      rig.rp2p[0]->rp2p_send(1, kChan, w.take());
    }
  });
  rig.world.run_for(kSecond);
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(rig.rp2p[0]->unacked_total(), 0u);  // all acked
  EXPECT_EQ(rig.rp2p[0]->retransmissions(), 0u);
}

// Property sweep: exactly-once FIFO delivery must survive any combination of
// loss and duplication the network model can produce.
struct LossyCase {
  std::uint64_t seed;
  double drop;
  double dup;
};

class Rp2pLossyTest : public ::testing::TestWithParam<LossyCase> {};

TEST_P(Rp2pLossyTest, ExactlyOnceFifoUnderLossAndDuplication) {
  const LossyCase& c = GetParam();
  SimConfig config{.num_stacks = 3, .seed = c.seed};
  config.net.drop_probability = c.drop;
  config.net.duplicate_probability = c.dup;
  Rig rig(config);

  // Every stack sends a numbered stream to every other stack.
  std::map<std::pair<NodeId, NodeId>, std::vector<int>> got;
  for (NodeId i = 0; i < 3; ++i) {
    rig.rp2p[i]->rp2p_bind_channel(kChan, [&, i](NodeId src, const Payload& p) {
      BufReader r(p);
      got[{src, i}].push_back(static_cast<int>(r.get_u32()));
    });
  }
  const int kCount = 60;
  for (NodeId i = 0; i < 3; ++i) {
    rig.world.at_node(0, i, [&rig, i]() {
      for (int k = 0; k < kCount; ++k) {
        for (NodeId j = 0; j < 3; ++j) {
          if (j == i) continue;
          BufWriter w;
          w.put_u32(static_cast<std::uint32_t>(k));
          rig.rp2p[i]->rp2p_send(j, kChan, w.take());
        }
      }
    });
  }
  rig.world.run_for(20 * kSecond);

  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      if (i == j) continue;
      const auto& stream = got[{i, j}];
      ASSERT_EQ(stream.size(), static_cast<std::size_t>(kCount))
          << "stream " << i << "->" << j;
      for (int k = 0; k < kCount; ++k) {
        ASSERT_EQ(stream[static_cast<std::size_t>(k)], k)
            << "stream " << i << "->" << j << " position " << k;
      }
    }
    EXPECT_EQ(rig.rp2p[i]->unacked_total(), 0u);
  }
  if (c.drop > 0.0) {
    EXPECT_GT(rig.rp2p[0]->retransmissions() + rig.rp2p[1]->retransmissions() +
                  rig.rp2p[2]->retransmissions(),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, Rp2pLossyTest,
    ::testing::Values(LossyCase{1, 0.0, 0.0}, LossyCase{2, 0.1, 0.0},
                      LossyCase{3, 0.3, 0.0}, LossyCase{4, 0.0, 0.3},
                      LossyCase{5, 0.2, 0.2}, LossyCase{6, 0.5, 0.1},
                      LossyCase{7, 0.3, 0.3}, LossyCase{8, 0.45, 0.0}));

TEST(Rp2p, FifoAcrossChannelsOfOnePair) {
  // FIFO holds per (src,dst) pair even when messages alternate channels.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 3});
  std::vector<int> order;
  rig.rp2p[1]->rp2p_bind_channel(1, [&](NodeId, const Payload& p) {
    BufReader r(p);
    order.push_back(static_cast<int>(r.get_u32()));
  });
  rig.rp2p[1]->rp2p_bind_channel(2, [&](NodeId, const Payload& p) {
    BufReader r(p);
    order.push_back(static_cast<int>(r.get_u32()));
  });
  rig.world.at_node(0, 0, [&]() {
    for (int i = 0; i < 20; ++i) {
      BufWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      rig.rp2p[0]->rp2p_send(1, (i % 2 == 0) ? 1 : 2, w.take());
    }
  });
  rig.world.run_for(kSecond);
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Rp2p, PendingChannelBufferReleasedOnBind) {
  // Messages for a channel whose protocol instance does not exist yet must
  // be held and released on bind — the mechanism behind "the invocation is
  // completed when P_j is added to stack j" (paper §2).
  Rig rig(SimConfig{.num_stacks = 2, .seed = 4});
  rig.world.at_node(0, 0, [&]() {
    rig.rp2p[0]->rp2p_send(1, kChan, to_bytes("early-1"));
    rig.rp2p[0]->rp2p_send(1, kChan, to_bytes("early-2"));
  });
  rig.world.run_for(100 * kMillisecond);
  EXPECT_EQ(rig.rp2p[1]->pending_channel_buffered(), 2u);

  std::vector<std::string> got;
  rig.rp2p[1]->rp2p_bind_channel(
      kChan, [&](NodeId, const Payload& p) { got.push_back(to_string(p)); });
  EXPECT_EQ(got, (std::vector<std::string>{"early-1", "early-2"}));
  EXPECT_EQ(rig.rp2p[1]->pending_channel_buffered(), 0u);

  // Later traffic flows directly.
  rig.world.at_node(rig.world.now(), 0,
                    [&]() { rig.rp2p[0]->rp2p_send(1, kChan, to_bytes("late")); });
  rig.world.run_for(100 * kMillisecond);
  EXPECT_EQ(got.size(), 3u);
}

TEST(Rp2p, ReleasedChannelBuffersAgain) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 5});
  int got = 0;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload&) { ++got; });
  rig.world.at_node(0, 0,
                    [&]() { rig.rp2p[0]->rp2p_send(1, kChan, to_bytes("a")); });
  rig.world.run_for(100 * kMillisecond);
  EXPECT_EQ(got, 1);

  rig.rp2p[1]->rp2p_release_channel(kChan);
  rig.world.at_node(rig.world.now(), 0,
                    [&]() { rig.rp2p[0]->rp2p_send(1, kChan, to_bytes("b")); });
  rig.world.run_for(100 * kMillisecond);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rig.rp2p[1]->pending_channel_buffered(), 1u);
}

TEST(Rp2p, SelfSendDelivered) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 6});
  std::vector<std::string> got;
  rig.rp2p[0]->rp2p_bind_channel(
      kChan, [&](NodeId src, const Payload& p) {
        EXPECT_EQ(src, 0u);
        got.push_back(to_string(p));
      });
  rig.world.at_node(0, 0,
                    [&]() { rig.rp2p[0]->rp2p_send(0, kChan, to_bytes("me")); });
  rig.world.run_for(kSecond);
  EXPECT_EQ(got, (std::vector<std::string>{"me"}));
}

TEST(Rp2p, AckCoalescingBatchesCumulativeAcks) {
  // A burst delivered inside one delayed-ack window must produce one
  // cumulative ack, not one ack datagram per in-order delivery.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 11});
  int got = 0;
  rig.rp2p[1]->rp2p_bind_channel(kChan,
                                 [&](NodeId, const Payload&) { ++got; });
  rig.world.at_node(0, 0, [&]() {
    for (int i = 0; i < 50; ++i) {
      BufWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      rig.rp2p[0]->rp2p_send(1, kChan, w.take_payload());
    }
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(got, 50);
  EXPECT_EQ(rig.rp2p[0]->unacked_total(), 0u);  // cumulative ack landed
  EXPECT_GE(rig.rp2p[1]->acks_sent(), 1u);
  EXPECT_LT(rig.rp2p[1]->acks_sent(), 25u);  // far fewer than deliveries
}

TEST(Rp2p, ImmediateAckModeAcksEveryDatagram) {
  SimConfig config{.num_stacks = 2, .seed = 12};
  SimWorld world(config);
  std::vector<Rp2pModule*> rp2p;
  for (NodeId i = 0; i < 2; ++i) {
    UdpModule::create(world.stack(i));
    Rp2pModule::Config rc;
    rc.ack_delay = 0;   // coalescing off
    rc.batching = false;  // ack-per-datagram ablation: 20 sends = 20 datagrams
    rp2p.push_back(Rp2pModule::create(world.stack(i), kRp2pService, rc));
    world.stack(i).start_all();
  }
  int got = 0;
  rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload&) { ++got; });
  world.at_node(0, 0, [&]() {
    for (int i = 0; i < 20; ++i) {
      rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("x")));
    }
  });
  world.run_for(kSecond);
  EXPECT_EQ(got, 20);
  EXPECT_GE(rp2p[1]->acks_sent(), 20u);
}

TEST(Rp2p, BackoffBoundsRetransmissionsIntoABlackHole) {
  // A destination behind a long-lived partition must not be hammered at
  // the base retransmit interval: exponential backoff caps the rate.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 13});
  rig.world.set_link_filter([](NodeId, NodeId) { return false; });
  rig.world.at_node(0, 0, [&]() {
    rig.rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("stuck")));
  });
  rig.world.run_for(10 * kSecond);
  // 10 s at the 5 ms test interval would be ~2000 linear retransmissions;
  // doubling up to the 640 ms cap keeps it around twenty.
  EXPECT_GT(rig.rp2p[0]->retransmissions(), 3u);
  EXPECT_LT(rig.rp2p[0]->retransmissions(), 60u);
  EXPECT_EQ(rig.rp2p[0]->unacked_total(), 1u);  // still queued, not dropped
}

TEST(Rp2p, SuspectedPeerStopsAttractingRetransmissions) {
  // With a failure detector in the stack, a crashed destination attracts
  // retransmissions only until it is suspected — not for the whole run.
  SimConfig config{.num_stacks = 3, .seed = 14};
  SimWorld world(config);
  std::vector<Rp2pModule*> rp2p;
  for (NodeId i = 0; i < 3; ++i) {
    UdpModule::create(world.stack(i));
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    rc.max_retransmit_backoff = 5 * kMillisecond;  // isolate the FD effect
    rp2p.push_back(Rp2pModule::create(world.stack(i), kRp2pService, rc));
    FdModule::create(world.stack(i));
    world.stack(i).start_all();
  }
  world.at(100 * kMillisecond, [&world]() { world.crash(1); });
  world.at_node(200 * kMillisecond, 0, [&]() {
    rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("to-the-dead")));
  });
  world.run_for(30 * kSecond);
  // Retransmissions happen only between the send and the FD suspecting the
  // crashed stack (sub-second); 30 s of linear 5 ms retries would be ~6000.
  EXPECT_LT(rp2p[0]->retransmissions(), 200u);
  EXPECT_GT(rp2p[0]->suspected_skips(), 0u);
}

TEST(Rp2p, FalseSuspicionOnlyPausesTheStream) {
  // A partition long enough for the FD to suspect a *correct* peer must
  // not lose traffic: retransmissions resume after trust is restored.
  SimConfig config{.num_stacks = 2, .seed = 15};
  SimWorld world(config);
  std::vector<Rp2pModule*> rp2p;
  for (NodeId i = 0; i < 2; ++i) {
    UdpModule::create(world.stack(i));
    Rp2pModule::Config rc;
    rc.retransmit_interval = 5 * kMillisecond;
    rp2p.push_back(Rp2pModule::create(world.stack(i), kRp2pService, rc));
    FdModule::create(world.stack(i));
    world.stack(i).start_all();
  }
  std::vector<std::string> got;
  rp2p[1]->rp2p_bind_channel(
      kChan, [&](NodeId, const Payload& p) { got.push_back(to_string(p)); });
  world.set_link_filter([](NodeId, NodeId) { return false; });
  world.at_node(100 * kMillisecond, 0, [&]() {
    rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("delayed")));
  });
  // Heal after 2 s — well past the 200 ms initial FD timeout, so both
  // sides falsely suspected each other in the meantime.
  world.at(2 * kSecond, [&world]() { world.set_link_filter(nullptr); });
  world.run_for(30 * kSecond);
  EXPECT_EQ(got, (std::vector<std::string>{"delayed"}));
  EXPECT_EQ(rp2p[0]->unacked_total(), 0u);
}

TEST(Rp2p, RetransmissionRecoversFromTotalBlackoutWindow) {
  // Drop everything for the first 200ms, then heal: all messages sent during
  // the blackout must still arrive, in order.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 7});
  rig.world.set_link_filter([](NodeId, NodeId) { return false; });
  std::vector<int> got;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload& p) {
    BufReader r(p);
    got.push_back(static_cast<int>(r.get_u32()));
  });
  rig.world.at_node(0, 0, [&]() {
    for (int i = 0; i < 10; ++i) {
      BufWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      rig.rp2p[0]->rp2p_send(1, kChan, w.take());
    }
  });
  rig.world.at(200 * kMillisecond,
               [&]() { rig.world.set_link_filter(nullptr); });
  rig.world.run_for(2 * kSecond);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// Batched packet path (ROADMAP 2(a); net/batch.hpp frame inside kBatch
// datagrams).
// ---------------------------------------------------------------------------

TEST(Rp2pBatch, BurstPacksIntoFewDatagramsAndStaysFifo) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 21});
  std::vector<int> got;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload& p) {
    BufReader r(p);
    got.push_back(static_cast<int>(r.get_u32()));
  });
  rig.world.at_node(0, 0, [&]() {
    for (int i = 0; i < 100; ++i) {
      BufWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      rig.rp2p[0]->rp2p_send(1, kChan, w.take());
    }
  });
  rig.world.run_for(kSecond);
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(rig.rp2p[0]->messages_sent(), 100u);
  // 100 x ~16-byte messages under the 1200-byte budget: the whole burst
  // fits in a couple of datagrams.  The engine charges (and counts) per
  // datagram, so world-level packet counts shrink identically.
  EXPECT_LE(rig.rp2p[0]->data_datagrams_sent(), 4u);
  EXPECT_GE(rig.rp2p[0]->data_datagrams_sent(), 1u);
}

TEST(Rp2pBatch, ByteBudgetSplitsAndOversizedMessageTravelsAlone) {
  Rig rig(SimConfig{.num_stacks = 2, .seed = 22});
  std::vector<std::size_t> sizes;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload& p) {
    sizes.push_back(p.size());
  });
  rig.world.at_node(0, 0, [&]() {
    // Six 500-byte messages: two per 1200-byte budget, so three datagrams.
    for (int i = 0; i < 6; ++i) {
      BufWriter w(500);
      for (int b = 0; b < 500; ++b) w.put_u8(static_cast<std::uint8_t>(i));
      rig.rp2p[0]->rp2p_send(1, kChan, w.take_payload());
    }
    // One 5000-byte message: over budget, goes out alone and intact.
    BufWriter big(5000);
    for (int b = 0; b < 5000; ++b) big.put_u8(0xAB);
    rig.rp2p[0]->rp2p_send(1, kChan, big.take_payload());
  });
  rig.world.run_for(kSecond);
  ASSERT_EQ(sizes.size(), 7u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(sizes[static_cast<std::size_t>(i)], 500u);
  EXPECT_EQ(sizes[6], 5000u);
  EXPECT_EQ(rig.rp2p[0]->data_datagrams_sent(), 4u);  // 3 full + 1 solo
}

TEST(Rp2pBatch, LoneMessageOnHotLinkLeavesWithinFlushWindow) {
  // A stream 30 us apart makes the link hot; the stream's last message has
  // no follow-up and must still leave within the flush window — batching
  // trades bounded latency, never liveness.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 23});
  std::vector<std::string> got;
  TimePoint last_arrival = 0;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload& p) {
    got.push_back(to_string(p));
    last_arrival = rig.world.now();
  });
  constexpr int kCount = 20;
  constexpr Duration kLastSend = (kCount - 1) * 30 * kMicrosecond;
  for (int i = 0; i < kCount; ++i) {
    rig.world.at_node(i * 30 * kMicrosecond, 0, [&rig]() {
      rig.rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("s")));
    });
  }
  rig.world.run_for(5 * kMillisecond);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  // Flush window (100 us) + network latency (<= 75 us) + send costs.
  EXPECT_LE(last_arrival, kLastSend + 180 * kMicrosecond);
  EXPECT_EQ(rig.rp2p[0]->retransmissions(), 0u);
}

TEST(Rp2pBatch, LoneMessageOnColdLinkLeavesAtItsEventsBusyTime) {
  // An idle link does not wait out the flush window: the message leaves
  // at the end of its event, once the CPU the event charged is spent.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 26});
  const NetModelConfig& net = rig.world.config().net;
  TimePoint arrival = -1;
  rig.rp2p[1]->rp2p_bind_channel(
      kChan, [&](NodeId, const Payload&) { arrival = rig.world.now(); });
  constexpr TimePoint kAt = kMillisecond;
  TimePoint busy = -1;
  rig.world.at_node(kAt, 0, [&]() {
    HostEnv& host = rig.world.stack(0).host();
    host.charge(30 * kMicrosecond);
    busy = host.busy_now();
    rig.rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("lone")));
  });
  rig.world.run_for(5 * kMillisecond);
  ASSERT_GE(busy, kAt + 30 * kMicrosecond);
  ASSERT_GE(arrival, 0) << "never delivered";
  // Departure = busy + the datagram's own send cost (~2 us).
  EXPECT_GE(arrival, busy + net.min_latency);
  EXPECT_LE(arrival, busy + net.max_latency + 5 * kMicrosecond);
  EXPECT_EQ(rig.rp2p[0]->data_datagrams_sent(), 1u);
}

TEST(Rp2pBatch, StreamOnHotLinkPacksSeveralMessagesPerDatagram) {
  // One message every 30 us, each from its own event: the gap EWMA drops
  // below the 100 us window, so the link batches over the window instead
  // of sending once per turn.
  Rig rig(SimConfig{.num_stacks = 2, .seed = 27});
  std::vector<int> got;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload& p) {
    BufReader r(p);
    got.push_back(static_cast<int>(r.get_u32()));
  });
  constexpr int kCount = 60;
  for (int i = 0; i < kCount; ++i) {
    rig.world.at_node(i * 30 * kMicrosecond, 0, [&rig, i]() {
      BufWriter w;
      w.put_u32(static_cast<std::uint32_t>(i));
      rig.rp2p[0]->rp2p_send(1, kChan, w.take_payload());
    });
  }
  rig.world.run_for(kSecond);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GE(rig.rp2p[0]->messages_sent(),
            3 * rig.rp2p[0]->data_datagrams_sent());
}

TEST(Rp2pBatch, SendsOfOneEventToOnePeerShareADatagram) {
  // A cold link flushes at the turn end, not per send: what one event
  // sends to a peer leaves as one datagram per peer.
  Rig rig(SimConfig{.num_stacks = 3, .seed = 28});
  std::map<NodeId, std::vector<int>> got;
  for (NodeId j = 1; j < 3; ++j) {
    rig.rp2p[j]->rp2p_bind_channel(kChan, [&got, j](NodeId, const Payload& p) {
      BufReader r(p);
      got[j].push_back(static_cast<int>(r.get_u32()));
    });
  }
  rig.world.at_node(kMillisecond, 0, [&rig]() {
    for (int i = 0; i < 5; ++i) {
      for (NodeId j = 1; j < 3; ++j) {
        BufWriter w;
        w.put_u32(static_cast<std::uint32_t>(i));
        rig.rp2p[0]->rp2p_send(j, kChan, w.take_payload());
      }
    }
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(got[1], (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(got[2], (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rig.rp2p[0]->data_datagrams_sent(), 2u);
}

TEST(Rp2pBatch, ParkedBatchSurvivesStopCrashAndRecovery) {
  // A batch parked for the turn end is never stranded: stop() seals it, a
  // crash drops it with its incarnation (the dead stack's pending turn end
  // never runs into the recovered one), and the recovered stack's link
  // flushes at its turn ends again.
  Rig rig(SimConfig{.num_stacks = 3, .seed = 29});
  std::vector<std::pair<NodeId, std::string>> got;
  rig.rp2p[2]->rp2p_bind_channel(kChan, [&](NodeId src, const Payload& p) {
    got.emplace_back(src, to_string(p));
  });
  // Stop: node 0 parks a message and destroys its rp2p in the same event.
  rig.world.at_node(kMillisecond, 0, [&rig]() {
    rig.rp2p[0]->rp2p_send(2, kChan, Payload(std::string_view("stopped")));
    rig.world.stack(0).destroy_module(rig.rp2p[0]);
  });
  // Crash: node 1 parks a message, then crashes before its turn ends.
  rig.world.at(2 * kMillisecond, [&rig]() {
    rig.world.run_on_node(1, [&rig]() {
      rig.rp2p[1]->rp2p_send(2, kChan, Payload(std::string_view("crashed")));
    });
    rig.world.crash(1);
  });
  // Recovery: a fresh rp2p on node 1 sends from a driver step.
  Rp2pModule* recovered = nullptr;
  rig.world.at(3 * kMillisecond, [&rig, &recovered]() {
    rig.world.recover(1);
    Stack& stack = rig.world.stack(1);
    UdpModule::create(stack);
    recovered = Rp2pModule::create(stack, kRp2pService);
    stack.start_all();
    recovered->rp2p_send(2, kChan, Payload(std::string_view("recovered")));
  });
  rig.world.run_for(kSecond);
  EXPECT_EQ(got, (std::vector<std::pair<NodeId, std::string>>{
                     {0, "stopped"}, {1, "recovered"}}));
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->unacked_total(), 0u);
}

TEST(Rp2pBatch, NackFastRetransmitResendsHoleDatagramNotPerMessageDuplicates) {
  // Regression (ISSUE 6 satellite): the NACK gap-check works in datagram
  // sequence numbers, so a lost batch is one hole and its fast retransmit
  // is the cached batch frame — resent once as a unit.  If the sender ever
  // re-sent the batch's messages individually they would take fresh
  // sequence numbers and arrive as duplicates; exactly-once FIFO delivery
  // at 10% loss is the observable guarantee.
  SimConfig config{.num_stacks = 2, .seed = 24};
  config.net.drop_probability = 0.10;
  Rig rig(config);
  std::vector<int> got;
  rig.rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload& p) {
    BufReader r(p);
    got.push_back(static_cast<int>(r.get_u32()));
  });
  // 40 bursts of 25 messages, spread out so many distinct batch datagrams
  // (and therefore many distinct loss opportunities) exist.  1 ms apart:
  // the next burst reveals a hole and its NACK (2 ms grace) goes out before
  // the 5 ms retransmission timer could repair it.
  constexpr int kBursts = 40;
  constexpr int kPerBurst = 25;
  for (int burst = 0; burst < kBursts; ++burst) {
    rig.world.at_node(burst * kMillisecond, 0, [&, burst]() {
      for (int i = 0; i < kPerBurst; ++i) {
        BufWriter w;
        w.put_u32(static_cast<std::uint32_t>(burst * kPerBurst + i));
        rig.rp2p[0]->rp2p_send(1, kChan, w.take());
      }
    });
  }
  rig.world.run_for(5 * kSecond);
  // Exactly-once, in order — no per-message duplicates from loss recovery.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBursts * kPerBurst));
  for (int i = 0; i < kBursts * kPerBurst; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  }
  // The holes were repaired by NACK-triggered fast retransmits of whole
  // datagrams: retransmission count is bounded by datagrams (tens), not
  // messages (a thousand).
  EXPECT_GT(rig.rp2p[0]->fast_retransmits(), 0u);
  EXPECT_LT(rig.rp2p[0]->retransmissions(),
            rig.rp2p[0]->data_datagrams_sent());
  EXPECT_LE(rig.rp2p[0]->data_datagrams_sent(), 120u);  // ~2-3 per burst
}

TEST(Rp2pBatch, AblationFlagRestoresOneDatagramPerMessage) {
  SimConfig config{.num_stacks = 2, .seed = 25};
  SimWorld world(config);
  std::vector<Rp2pModule*> rp2p;
  for (NodeId i = 0; i < 2; ++i) {
    UdpModule::create(world.stack(i));
    Rp2pModule::Config rc;
    rc.batching = false;
    rp2p.push_back(Rp2pModule::create(world.stack(i), kRp2pService, rc));
    world.stack(i).start_all();
  }
  int got = 0;
  rp2p[1]->rp2p_bind_channel(kChan, [&](NodeId, const Payload&) { ++got; });
  world.at_node(0, 0, [&]() {
    for (int i = 0; i < 30; ++i) {
      rp2p[0]->rp2p_send(1, kChan, Payload(std::string_view("x")));
    }
  });
  world.run_for(kSecond);
  EXPECT_EQ(got, 30);
  EXPECT_EQ(rp2p[0]->messages_sent(), 30u);
  EXPECT_EQ(rp2p[0]->data_datagrams_sent(), 30u);
}

}  // namespace
}  // namespace dpu
