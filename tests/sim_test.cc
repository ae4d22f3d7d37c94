// Unit tests for src/sim: event-queue semantics, bandwidth-schedule integration
// (the DDoS mechanism), the NIC delivery model, and the actor harness.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/actor.h"
#include "src/sim/bandwidth.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace torsim {
namespace {

using torbase::Bytes;
using torbase::kTimeNever;
using torbase::Millis;
using torbase::Minutes;
using torbase::NodeId;
using torbase::Seconds;

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, SameTimeFifoByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(5, [&] { order.push_back(1); });
  sim.ScheduleAt(5, [&] { order.push_back(2); });
  sim.ScheduleAt(5, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired_at = 0;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.Run();
  bool fired = false;
  sim.ScheduleAt(10, [&] { fired = true; });  // in the past
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, CancelUnknownIsNoOp) {
  Simulator sim;
  sim.Cancel(12345);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<TimePoint> fired;
  for (TimePoint t : {10u, 20u, 30u, 40u}) {
    sim.ScheduleAt(t, [&, t] { fired.push_back(t); });
  }
  sim.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<TimePoint>{10, 20}));
  EXPECT_EQ(sim.now(), 25u);
  sim.Run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, RunWithLimit) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(static_cast<TimePoint>(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.Run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, PendingCountNeverUnderflows) {
  // pending_count() tracks live events exactly: cancellation decrements it at
  // cancel time, and draining tombstones must not change it. Interleaving
  // cancellations with partial drains must keep it monotone-sane even in
  // pathological orders.
  Simulator sim;
  std::vector<EventId> ids;
  for (TimePoint t : {10u, 20u, 30u, 40u}) {
    ids.push_back(sim.ScheduleAt(t, [] {}));
  }
  EXPECT_EQ(sim.pending_count(), 4u);
  sim.Cancel(ids[1]);
  sim.Cancel(ids[3]);
  EXPECT_EQ(sim.pending_count(), 2u);
  // Cancelling twice, or cancelling unknown ids, changes nothing.
  sim.Cancel(ids[1]);
  sim.Cancel(987654);
  EXPECT_EQ(sim.pending_count(), 2u);

  sim.RunUntil(25);  // drains 10 (live) and the cancelled 20
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_LT(sim.pending_count(), 1u << 20) << "unsigned underflow";

  // Cancel-from-within-a-handler while the queue drains.
  EventId last = sim.ScheduleAt(50, [] {});
  sim.ScheduleAt(45, [&] { sim.Cancel(last); });
  sim.Run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.now(), 45u);
}

TEST(SimulatorTest, PendingCountSaneAfterFullDrainWithManyCancels) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(sim.ScheduleAt(static_cast<TimePoint>(i), [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 2) {
    sim.Cancel(ids[i]);
  }
  EXPECT_EQ(sim.pending_count(), 16u);
  sim.Run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, CancelReleasesCapturedStateImmediately) {
  // Cancel destroys the callback right away, not when the cancelled instant
  // drains off the queue: captured resources (multi-megabyte payload buffers
  // in the network layer) must not linger until the event's time arrives.
  Simulator sim;
  auto payload = std::make_shared<std::string>("captured vote bytes");
  const EventId id = sim.ScheduleAt(Minutes(10), [payload] { (void)payload; });
  ASSERT_EQ(payload.use_count(), 2);
  sim.Cancel(id);
  EXPECT_EQ(payload.use_count(), 1) << "capture must be freed at cancel time";
  sim.Run();
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(SimulatorTest, StaleIdCannotCancelReusedSlot) {
  // After an event fires, its slot may be reused by a new event; the old
  // (stale) EventId must not cancel the newcomer (generation tags).
  Simulator sim;
  bool first_fired = false;
  const EventId first = sim.ScheduleAt(10, [&] { first_fired = true; });
  sim.Run();
  ASSERT_TRUE(first_fired);

  bool second_fired = false;
  sim.ScheduleAt(20, [&] { second_fired = true; });  // reuses the slot
  sim.Cancel(first);                                 // stale: must be a no-op
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(BandwidthTest, ConstantRateFinishTime) {
  BandwidthSchedule sched(BitsPerSecond(1e6));  // 1 Mbit/s
  // 1000 bits at 1 Mbit/s = 1 ms = 1000 us.
  EXPECT_EQ(sched.FinishTime(0, 1000), 1000u);
  EXPECT_EQ(sched.FinishTime(500, 1000), 1500u);
}

TEST(BandwidthTest, ZeroBitsFinishImmediately) {
  BandwidthSchedule sched(BitsPerSecond(1e6));
  EXPECT_EQ(sched.FinishTime(77, 0), 77u);
}

TEST(BandwidthTest, InfiniteRateIsInstant) {
  BandwidthSchedule sched(std::numeric_limits<double>::infinity());
  EXPECT_EQ(sched.FinishTime(10, 1e12), 10u);
}

TEST(BandwidthTest, ZeroRateForeverNeverFinishes) {
  BandwidthSchedule sched(0.0);
  EXPECT_EQ(sched.FinishTime(0, 1), kTimeNever);
}

TEST(BandwidthTest, RateChangeMidTransfer) {
  BandwidthSchedule sched(BitsPerSecond(1e6));
  sched.SetRateFrom(1000, BitsPerSecond(2e6));
  // 3000 bits starting at 0: first 1000 us at 1 Mbit/s carries 1000 bits,
  // remaining 2000 bits at 2 Mbit/s takes 1000 us -> finish at 2000 us.
  EXPECT_EQ(sched.FinishTime(0, 3000), 2000u);
}

TEST(BandwidthTest, StallDuringZeroRateWindowThenResume) {
  BandwidthSchedule sched(BitsPerSecond(1e6));
  sched.LimitDuring(Seconds(1), Seconds(4), 0.0);
  // Transfer starts during the outage; nothing moves until t=4 s.
  const TimePoint finish = sched.FinishTime(Seconds(2), 1000);
  EXPECT_EQ(finish, Seconds(4) + 1000);
}

TEST(BandwidthTest, LimitDuringRestoresPreviousRate) {
  BandwidthSchedule sched(BitsPerSecond(8e6));
  sched.LimitDuring(Seconds(10), Seconds(20), BitsPerSecond(1e6));
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(5)), 8e6);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(15)), 1e6);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(25)), 8e6);
}

TEST(BandwidthTest, LimitDuringSwallowsInteriorChanges) {
  BandwidthSchedule sched(BitsPerSecond(8e6));
  sched.SetRateFrom(Seconds(12), BitsPerSecond(4e6));
  sched.LimitDuring(Seconds(10), Seconds(20), 0.0);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(13)), 0.0);
  // After the window the most recent underlying rate (4 Mbit/s) resumes.
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(21)), 4e6);
}

TEST(BandwidthTest, CapacityDuring) {
  BandwidthSchedule sched(BitsPerSecond(1e6));
  sched.LimitDuring(Seconds(1), Seconds(2), 0.0);
  // [0,3): 1 s at 1 Mbit/s + 1 s at 0 + 1 s at 1 Mbit/s = 2e6 bits.
  EXPECT_DOUBLE_EQ(sched.CapacityDuring(0, Seconds(3)), 2e6);
}

TEST(BandwidthTest, AttackWindowDelaysTransferAcrossWindow) {
  // The paper's core mechanism: a transfer that would take 1 s under normal
  // bandwidth stretches across a 5-minute attack window.
  BandwidthSchedule sched(MegabitsPerSecond(250));
  sched.LimitDuring(0, Minutes(5), MegabitsPerSecond(0.5));
  const double vote_bits = 8.0 * 3.0e6;  // a 3 MB vote document
  const TimePoint finish = sched.FinishTime(0, vote_bits);
  // 0.5 Mbit/s for 300 s carries 150e6 bits > 24e6 bits, so it finishes during
  // the attack at 24e6/0.5e6 = 48 s.
  EXPECT_EQ(finish, Seconds(48));
  // But at 0.05 Mbit/s it cannot finish inside the window.
  BandwidthSchedule harsher(MegabitsPerSecond(250));
  harsher.LimitDuring(0, Minutes(5), MegabitsPerSecond(0.05));
  const TimePoint finish2 = harsher.FinishTime(0, vote_bits);
  EXPECT_GT(finish2, Minutes(5));
}

TEST(BandwidthTest, AdjacentEqualRateSegmentsMerge) {
  // Rolling attacks clamp-and-restore every epoch; repeated same-rate windows
  // must collapse instead of growing the change-point map per epoch.
  BandwidthSchedule sched(BitsPerSecond(8e6));
  EXPECT_EQ(sched.segment_count(), 1u);

  // Back-to-back windows at the same clamp rate: one clamp + one restore.
  for (int epoch = 0; epoch < 50; ++epoch) {
    const TimePoint start = Seconds(10) + static_cast<TimePoint>(epoch) * Seconds(2);
    sched.LimitDuring(start, start + Seconds(2), BitsPerSecond(1e6));
  }
  EXPECT_EQ(sched.segment_count(), 3u);  // t=0 anchor, clamp at 10 s, restore
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(5)), 8e6);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(60)), 1e6);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(110) + 1), 8e6);

  // A redundant SetRateFrom (same rate as the active segment) adds nothing.
  sched.SetRateFrom(Minutes(10), BitsPerSecond(8e6));
  EXPECT_EQ(sched.segment_count(), 3u);

  // The step function itself is unchanged by merging.
  EXPECT_EQ(sched.NextChangeAfter(0), Seconds(10));
  EXPECT_EQ(sched.NextChangeAfter(Seconds(10)), Seconds(110));
  EXPECT_EQ(sched.NextChangeAfter(Seconds(110)), torbase::kTimeNever);
}

TEST(BandwidthTest, MergeKeepsRestorePointWhenRatesDiffer) {
  BandwidthSchedule sched(BitsPerSecond(8e6));
  sched.LimitDuring(Seconds(1), Seconds(2), BitsPerSecond(1e6));
  sched.LimitDuring(Seconds(2), Seconds(3), BitsPerSecond(2e6));
  EXPECT_EQ(sched.segment_count(), 4u);  // 0, clamp1, clamp2, restore
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(1)), 1e6);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(2)), 2e6);
  EXPECT_DOUBLE_EQ(sched.RateAt(Seconds(3)), 8e6);
}

NetworkConfig SmallNetConfig(uint32_t n, double bw_bps, Duration latency) {
  NetworkConfig config;
  config.node_count = n;
  config.default_bandwidth_bps = bw_bps;
  config.default_latency = latency;
  return config;
}

TEST(NetworkTest, DeliveryTimeMatchesNicModel) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, BitsPerSecond(1e6), Millis(10)));
  TimePoint delivered_at = 0;
  Bytes got;
  net.SetHandler(1, [&](NodeId from, const Frame& payload) {
    EXPECT_EQ(from, 0u);
    got = payload.Flatten();
    delivered_at = sim.now();
  });
  // 936-byte payload + 64 overhead = 1000 bytes = 8000 bits.
  net.Send(0, 1, "TEST", Bytes(936, 0xaa));
  sim.Run();
  // egress 8000 us + latency 10000 us + ingress 8000 us.
  EXPECT_EQ(delivered_at, 26000u);
  EXPECT_EQ(got.size(), 936u);
}

TEST(NetworkTest, EgressFairSharesConcurrentSends) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(3, BitsPerSecond(1e6), Millis(0)));
  std::vector<TimePoint> deliveries;
  for (NodeId r : {1u, 2u}) {
    net.SetHandler(r, [&](NodeId, const Frame&) { deliveries.push_back(sim.now()); });
  }
  // Two concurrent messages from node 0: each gets half the egress rate, so
  // both finish egress at 16000 us, then each crosses its receiver's idle
  // ingress in 8000 us.
  net.Send(0, 1, "TEST", Bytes(936, 1));  // 8000 bits
  net.Send(0, 2, "TEST", Bytes(936, 2));  // 8000 bits
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 24000u);
  EXPECT_EQ(deliveries[1], 24000u);
}

TEST(NetworkTest, IngressFairSharesConcurrentSenders) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(3, BitsPerSecond(1e6), Millis(0)));
  std::vector<TimePoint> deliveries;
  net.SetHandler(2, [&](NodeId, const Frame&) { deliveries.push_back(sim.now()); });
  net.Send(0, 2, "TEST", Bytes(936, 1));
  net.Send(1, 2, "TEST", Bytes(936, 2));
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  // Both arrive at 8000 after their (parallel) egress; the receiver's ingress
  // fair-shares, so both complete together at 8000 + 16000.
  EXPECT_EQ(deliveries[0], 24000u);
  EXPECT_EQ(deliveries[1], 24000u);
}

TEST(NetworkTest, LateFlowSharesRemainingCapacity) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(3, BitsPerSecond(1e6), Millis(0)));
  std::vector<std::pair<NodeId, TimePoint>> deliveries;
  for (NodeId r : {1u, 2u}) {
    net.SetHandler(r, [&, r](NodeId, const Frame&) { deliveries.emplace_back(r, sim.now()); });
  }
  // Flow A: 16000 bits at t=0. Flow B: 4000 bits at t=8000 us.
  // [0,8000): A alone drains 8000 bits (8000 left).
  // [8000,16000): A and B share; each drains 4000 bits -> B egress done at
  // 16000 with 0 left, A has 4000 left, done at 20000.
  net.Send(0, 1, "A", Bytes(1936, 1));  // 16000 bits
  sim.ScheduleAt(8000, [&] { net.Send(0, 2, "B", Bytes(436, 2)); });  // 4000 bits
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  // B: egress done 16000, ingress (idle, 4000 bits) +4000 -> 20000.
  EXPECT_EQ(deliveries[0].first, 2u);
  EXPECT_EQ(deliveries[0].second, 20000u);
  // A: egress done 20000, ingress 16000 bits -> 36000.
  EXPECT_EQ(deliveries[1].first, 1u);
  EXPECT_EQ(deliveries[1].second, 36000u);
}

TEST(NetworkTest, SelfSendDeliversWithoutBandwidthCost) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, BitsPerSecond(8.0), Millis(500)));
  bool delivered = false;
  net.SetHandler(0, [&](NodeId from, const Frame&) {
    EXPECT_EQ(from, 0u);
    delivered = true;
  });
  net.Send(0, 0, "LOCAL", Bytes{1, 2, 3});
  sim.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(NetworkTest, CountsTrafficPerNodeAndKind) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, BitsPerSecond(1e9), Millis(1)));
  net.SetHandler(1, [](NodeId, const Frame&) {});
  net.Send(0, 1, "VOTE", Bytes(100, 0));
  net.Send(0, 1, "VOTE", Bytes(100, 0));
  net.Send(0, 1, "SIG", Bytes(10, 0));
  sim.Run();
  EXPECT_EQ(net.counters(0).messages_sent, 3u);
  EXPECT_EQ(net.counters(0).bytes_sent, (100u + 64) * 2 + (10 + 64));
  EXPECT_EQ(net.counters(1).messages_received, 3u);
  EXPECT_EQ(net.bytes_by_kind().at("VOTE"), (100u + 64) * 2);
  EXPECT_EQ(net.bytes_by_kind().at("SIG"), 10u + 64);
}

// What one network run of a frame shows: per delivery the receiver, instant,
// wire bytes and where the shared body's view points; and the accounting.
struct FrameRun {
  struct Delivery {
    NodeId to;
    TimePoint at;
    Bytes wire;
    const char* body;
  };
  std::vector<Delivery> deliveries;
  uint64_t bytes_sent = 0;
  std::map<std::string, uint64_t> bytes_by_kind;
};

// Broadcasts `payload` from node 0 and sends it from 1 to 2 as well.
FrameRun RunFrame(const Frame& payload, bool flatten) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(4, BitsPerSecond(1e6), Millis(10)));
  net.set_flatten_frames(flatten);
  FrameRun run;
  for (NodeId r = 1; r < 4; ++r) {
    net.SetHandler(r, [&, r](NodeId, const Frame& frame) {
      torbase::Reader reader(frame);
      EXPECT_TRUE(reader.ReadU8().ok());
      const auto body = reader.ReadStringView();
      ASSERT_TRUE(body.ok());
      run.deliveries.push_back({r, sim.now(), frame.Flatten(), body->data()});
    });
  }
  net.Broadcast(0, "VOTE", payload);
  net.Send(1, 2, "VOTE", payload);
  sim.Run();
  run.bytes_sent = net.total_bytes_sent();
  run.bytes_by_kind = net.bytes_by_kind();
  return run;
}

// A frame's shared text rides by reference but is accounted and timed by its
// bytes: a segmented broadcast counts and delivers exactly like its flat
// twin, and each receiver reads the sender's own text — unless the network
// flattens frames, as the reference runner's does.
TEST(NetworkTest, SegmentedFrameIsAccountedLikeItsFlatTwin) {
  const auto text = std::make_shared<const std::string>(3000, 'v');
  torbase::Writer w;
  w.WriteU8(1);
  w.WriteShared(text);
  w.WriteU64(99);
  const Frame segmented = w.TakeFrame();
  const Frame flat(segmented.Flatten());

  const FrameRun shared = RunFrame(segmented, false);
  const FrameRun twin = RunFrame(flat, false);
  const FrameRun flattened = RunFrame(segmented, true);
  EXPECT_EQ(shared.bytes_sent, 4 * (1 + 4 + 3000 + 8 + kPerMessageOverheadBytes));
  for (const FrameRun* run : {&twin, &flattened}) {
    EXPECT_EQ(run->bytes_sent, shared.bytes_sent);
    EXPECT_EQ(run->bytes_by_kind, shared.bytes_by_kind);
    ASSERT_EQ(run->deliveries.size(), shared.deliveries.size());
    for (size_t i = 0; i < shared.deliveries.size(); ++i) {
      EXPECT_EQ(run->deliveries[i].to, shared.deliveries[i].to);
      EXPECT_EQ(run->deliveries[i].at, shared.deliveries[i].at);
      EXPECT_EQ(run->deliveries[i].wire, shared.deliveries[i].wire);
      EXPECT_NE(run->deliveries[i].body, text->data());
    }
  }
  ASSERT_EQ(shared.deliveries.size(), 4u);
  for (const FrameRun::Delivery& delivery : shared.deliveries) {
    EXPECT_EQ(delivery.body, text->data());
  }
}

TEST(NetworkTest, AsymmetricLatency) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, std::numeric_limits<double>::infinity(), Millis(10)));
  net.SetLatency(0, 1, Millis(5));
  net.SetLatency(1, 0, Millis(50));
  TimePoint t01 = 0;
  TimePoint t10 = 0;
  net.SetHandler(1, [&](NodeId, const Frame&) { t01 = sim.now(); });
  net.SetHandler(0, [&](NodeId, const Frame&) { t10 = sim.now(); });
  net.Send(0, 1, "A", Bytes{1});
  net.Send(1, 0, "B", Bytes{1});
  sim.Run();
  EXPECT_EQ(t01, Millis(5));
  EXPECT_EQ(t10, Millis(50));
}

TEST(NetworkTest, UndeliverableWhenRateZeroForever) {
  Simulator sim;
  NetworkConfig config = SmallNetConfig(2, BitsPerSecond(1e6), Millis(1));
  Network net(&sim, config);
  net.egress(0).SetRateFrom(0, 0.0);  // node 0 permanently offline outbound
  bool delivered = false;
  net.SetHandler(1, [&](NodeId, const Frame&) { delivered = true; });
  net.Send(0, 1, "X", Bytes{1});
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.undeliverable_count(), 1u);
}

TEST(NetworkTest, TransferStalledByAttackWindowResumesAfterIt) {
  Simulator sim;
  NetworkConfig config = SmallNetConfig(2, BitsPerSecond(1e6), Millis(0));
  Network net(&sim, config);
  // Node 0 offline (DDoS) during [0, 5 s); back to 1 Mbit/s afterwards.
  net.egress(0).LimitDuring(0, Seconds(5), 0.0);
  TimePoint delivered_at = 0;
  net.SetHandler(1, [&](NodeId, const Frame&) { delivered_at = sim.now(); });
  net.Send(0, 1, "X", Bytes(936, 0));  // 8000 bits
  sim.Run();
  // Egress starts moving at t=5 s, takes 8000 us; ingress another 8000 us.
  EXPECT_EQ(delivered_at, Seconds(5) + 16000);
}

TEST(NetworkTest, MidRunLimitNodeSlowsInFlightTransfer) {
  // Dynamic attack schedules clamp NICs while transfers are draining; the NIC
  // must re-derive the completion time instead of honouring the stale one.
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, BitsPerSecond(1e6), Millis(0)));
  TimePoint delivered_at = 0;
  net.SetHandler(1, [&](NodeId, const Frame&) { delivered_at = sim.now(); });
  net.Send(0, 1, "X", Bytes(1936, 0));  // 16000 bits: egress alone takes 16 ms

  // At t=8 ms (half drained), clamp node 0 to a tenth of the rate for 1 s.
  sim.ScheduleAt(8000, [&] { net.LimitNode(0, 8000, Seconds(1) + 8000, BitsPerSecond(1e5)); });
  sim.Run();
  // Egress: 8000 bits at 1 Mbit/s (8 ms) + 8000 bits at 0.1 Mbit/s (80 ms),
  // then ingress at the unclamped 1 Mbit/s (16 ms).
  EXPECT_EQ(delivered_at, 8000u + 80000u + 16000u);
}

TEST(NetworkTest, MidRunLimitLiftsWhenWindowEnds) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, BitsPerSecond(1e6), Millis(0)));
  TimePoint delivered_at = 0;
  net.SetHandler(1, [&](NodeId, const Frame&) { delivered_at = sim.now(); });
  net.Send(0, 1, "X", Bytes(1936, 0));  // 16000 bits
  // Clamp to zero for [8 ms, 1 s): the transfer stalls, then resumes.
  sim.ScheduleAt(8000, [&] { net.LimitNode(0, 8000, Seconds(1), 0.0); });
  sim.Run();
  // 8 ms draining + stall until 1 s + remaining 8000 bits (8 ms) + ingress.
  EXPECT_EQ(delivered_at, Seconds(1) + 8000u + 16000u);
}

TEST(NetworkTest, SetNodeRateFromCrashesAndRecovers) {
  Simulator sim;
  Network net(&sim, SmallNetConfig(2, BitsPerSecond(1e6), Millis(0)));
  TimePoint delivered_at = 0;
  net.SetHandler(1, [&](NodeId, const Frame&) { delivered_at = sim.now(); });
  // Crash node 0 from t=0; recover at t=2 s (installed before the run).
  net.SetNodeRateFrom(0, 0, 0.0);
  net.SetNodeRateFrom(0, Seconds(2), BitsPerSecond(1e6));
  net.Send(0, 1, "X", Bytes(936, 0));  // 8000 bits
  sim.Run();
  EXPECT_EQ(delivered_at, Seconds(2) + 8000u + 8000u);
}

// A ping-pong actor pair exercising the harness wiring.
class PingActor : public Actor {
 public:
  void Start() override {
    if (id() == 0) {
      SendTo(1, "PING", Bytes{0});
    }
  }
  void OnMessage(NodeId from, const Frame& payload) override {
    ++received;
    const Bytes bytes = payload.Flatten();
    if (bytes[0] < 3) {
      SendTo(from, "PING", Bytes{static_cast<uint8_t>(bytes[0] + 1)});
    }
  }
  int received = 0;
};

TEST(ActorTest, PingPongThroughHarness) {
  NetworkConfig config = SmallNetConfig(2, BitsPerSecond(1e9), Millis(1));
  Harness harness(config);
  auto* a = harness.AddActor(std::make_unique<PingActor>());
  auto* b = harness.AddActor(std::make_unique<PingActor>());
  harness.StartAll();
  harness.sim().Run();
  // Messages carry payload 0,1,2,3: b receives 0 and 2, a receives 1 and 3.
  EXPECT_EQ(static_cast<PingActor*>(b)->received, 2);
  EXPECT_EQ(static_cast<PingActor*>(a)->received, 2);
}

class BroadcastActor : public Actor {
 public:
  void Start() override {
    if (id() == 0) {
      SendToAllOthers("HELLO", Bytes{42});
    }
  }
  void OnMessage(NodeId, const Frame&) override { ++received; }
  int received = 0;
};

TEST(ActorTest, BroadcastReachesAllOthers) {
  Harness harness(SmallNetConfig(5, BitsPerSecond(1e9), Millis(1)));
  std::vector<BroadcastActor*> actors;
  for (int i = 0; i < 5; ++i) {
    actors.push_back(
        static_cast<BroadcastActor*>(harness.AddActor(std::make_unique<BroadcastActor>())));
  }
  harness.StartAll();
  harness.sim().Run();
  EXPECT_EQ(actors[0]->received, 0);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(actors[i]->received, 1) << "actor " << i;
  }
}

TEST(ActorTest, TimersFireAndCancel) {
  Harness harness(SmallNetConfig(2, BitsPerSecond(1e9), Millis(1)));
  struct TimerActor : Actor {
    void Start() override {
      SetTimer(Seconds(1), [this] { fired = true; });
      EventId id = SetTimer(Seconds(2), [this] { cancelled_fired = true; });
      CancelTimer(id);
    }
    void OnMessage(NodeId, const Frame&) override {}
    bool fired = false;
    bool cancelled_fired = false;
  };
  auto* actor = static_cast<TimerActor*>(harness.AddActor(std::make_unique<TimerActor>()));
  harness.AddActor(std::make_unique<BroadcastActor>());
  harness.StartAll();
  harness.sim().Run();
  EXPECT_TRUE(actor->fired);
  EXPECT_FALSE(actor->cancelled_fired);
}

}  // namespace
}  // namespace torsim
