// Tests for the attack layer (src/attack): window composition on one target,
// windows outliving the run horizon, per-target residual bandwidth, and the
// deterministic victim sequences of the rolling and adaptive schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/scenario/runner.h"
#include "src/sim/actor.h"

namespace torattack {
namespace {

using torbase::Minutes;
using torbase::NodeId;
using torbase::Seconds;

torsim::NetworkConfig NetConfig(uint32_t n) {
  torsim::NetworkConfig config;
  config.node_count = n;
  config.default_bandwidth_bps = torsim::MegabitsPerSecond(250);
  config.default_latency = torbase::Millis(10);
  return config;
}

TEST(AttackWindowTest, OverlappingWindowsComposeLastWriterWins) {
  torsim::Harness harness(NetConfig(3));
  AttackWindow first;
  first.targets = {0};
  first.start = 0;
  first.end = Seconds(300);
  first.available_bps = 0.5e6;
  AttackWindow second;
  second.targets = {0};
  second.start = Seconds(200);
  second.end = Seconds(400);
  second.available_bps = 1e6;
  ApplyAttack(harness.net(), first);
  ApplyAttack(harness.net(), second);

  const auto& schedule = harness.net().egress(0);
  EXPECT_DOUBLE_EQ(schedule.RateAt(Seconds(100)), 0.5e6);
  // The overlap [200, 300) belongs to the later window.
  EXPECT_DOUBLE_EQ(schedule.RateAt(Seconds(250)), 1e6);
  EXPECT_DOUBLE_EQ(schedule.RateAt(Seconds(350)), 1e6);
  EXPECT_DOUBLE_EQ(schedule.RateAt(Seconds(450)), 250e6);
  // The untouched direction of another node keeps the base rate.
  EXPECT_DOUBLE_EQ(harness.net().egress(1).RateAt(0), 250e6);
}

TEST(AttackWindowTest, PerTargetResidualBandwidth) {
  torsim::Harness harness(NetConfig(3));
  AttackWindow window;
  window.targets = {0, 1, 2};
  window.start = 0;
  window.end = Seconds(60);
  window.available_bps = 0.5e6;
  window.available_bps_by_target[1] = 2e6;  // weaker flood against node 1
  ApplyAttack(harness.net(), window);
  EXPECT_DOUBLE_EQ(harness.net().ingress(0).RateAt(Seconds(30)), 0.5e6);
  EXPECT_DOUBLE_EQ(harness.net().ingress(1).RateAt(Seconds(30)), 2e6);
  EXPECT_DOUBLE_EQ(harness.net().ingress(2).RateAt(Seconds(30)), 0.5e6);
}

TEST(AttackWindowTest, HistoryReportsPerTargetResidualRates) {
  torsim::Harness harness(NetConfig(3));
  AttackWindow window;
  window.targets = {0, 1, 2};
  window.start = 0;
  window.end = Seconds(60);
  window.available_bps = 0.5e6;
  window.available_bps_by_target[1] = 2e6;
  WindowedAttack attack({window});
  AttackContext context;
  context.authority_count = 3;
  context.horizon = Seconds(60);
  attack.Install(harness, context);

  // Two samples: the default-rate victims and the overridden one.
  ASSERT_EQ(attack.history().size(), 2u);
  EXPECT_EQ(attack.history()[0].available_bps, 0.5e6);
  EXPECT_EQ(attack.history()[0].victims, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(attack.history()[1].available_bps, 2e6);
  EXPECT_EQ(attack.history()[1].victims, (std::vector<NodeId>{1}));
}

TEST(AttackWindowTest, BandwidthRequirementHonoursStandingAttacks) {
  // base.attack already knocks out authorities 5-8; the probe clamp on 0-3
  // must join that attack, not replace it. With the standing outage the run
  // only succeeds when the four probed victims can move their votes, so the
  // search cannot return lo (which it would if base.attack were dropped: 5
  // healthy authorities are a self-sufficient majority).
  torscenario::ScenarioSpec base;
  base.protocol = "current";
  base.relay_count = 800;
  base.horizon = Minutes(15);
  AttackWindow standing;
  standing.targets = {5, 6, 7, 8};
  standing.start = 0;
  standing.end = base.horizon;
  standing.available_bps = 0.0;
  base.attack = std::make_shared<WindowedAttack>(std::vector<AttackWindow>{standing});
  torscenario::ScenarioRunner runner;
  const double required = torscenario::FindBandwidthRequirement(
      runner, base, /*victim_count=*/4, 0.2e6, 25e6, /*probes=*/2);
  EXPECT_GT(required, 0.2e6);
  EXPECT_LE(required, 25e6);
}

TEST(AttackWindowTest, WindowEndingAfterRunLimitStillFailsTheRun) {
  // A clamp that outlives the simulation horizon must behave exactly like a
  // whole-run clamp — no crash, failed run, NaN metrics.
  torscenario::ScenarioSpec spec;
  spec.protocol = "current";
  spec.relay_count = 600;
  spec.horizon = Minutes(15);
  AttackWindow window;
  window.targets = FirstTargets(5);
  window.start = 0;
  window.end = torbase::Hours(100);  // far beyond the horizon
  spec.attack = std::make_shared<WindowedAttack>(std::vector<AttackWindow>{window});
  torscenario::ScenarioRunner runner;
  const auto result = runner.Run(spec);
  EXPECT_FALSE(result.succeeded);
  EXPECT_TRUE(std::isnan(result.latency_seconds));
  EXPECT_TRUE(std::isnan(result.finish_time_seconds));
}

TEST(RollingAttackTest, LinearRotationIsDeterministic) {
  RollingAttackConfig config;
  config.victim_count = 3;
  config.period = Seconds(10);
  config.start = 0;
  config.end = Seconds(50);
  RollingAttack attack(config);

  // Victim arithmetic: epoch k starts at authority (k * stride) % n.
  EXPECT_EQ(attack.VictimsOf(0, 9), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(attack.VictimsOf(1, 9), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(attack.VictimsOf(8, 9), (std::vector<NodeId>{8, 0, 1}));

  torsim::Harness harness(NetConfig(9));
  AttackContext context;
  context.authority_count = 9;
  context.horizon = Seconds(50);
  attack.Install(harness, context);

  ASSERT_EQ(attack.history().size(), 5u);
  for (size_t epoch = 0; epoch < attack.history().size(); ++epoch) {
    EXPECT_EQ(attack.history()[epoch].at, epoch * Seconds(10));
    EXPECT_EQ(attack.history()[epoch].victims, attack.VictimsOf(epoch, 9));
  }
  // The clamps are really on the NICs: node 3 is only attacked in epochs 1-3.
  EXPECT_DOUBLE_EQ(harness.net().egress(3).RateAt(Seconds(5)), 250e6);
  EXPECT_DOUBLE_EQ(harness.net().egress(3).RateAt(Seconds(15)), kUnderAttackBps);
}

TEST(RollingAttackTest, SeededRotationIsDeterministicAndScrambled) {
  RollingAttackConfig config;
  config.victim_count = 2;
  config.period = Seconds(10);
  config.end = Seconds(100);
  config.seed = 7;
  RollingAttack a(config);
  RollingAttack b(config);
  std::set<NodeId> heads;
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    EXPECT_EQ(a.VictimsOf(epoch, 9), b.VictimsOf(epoch, 9)) << epoch;
    heads.insert(a.VictimsOf(epoch, 9)[0]);
  }
  // Scrambled: the 10 epochs do not all start at the same authority.
  EXPECT_GT(heads.size(), 2u);
}

TEST(AdaptiveLeaderAttackTest, FallsBackToRotationWithoutALeaderProbe) {
  AdaptiveLeaderConfig config;
  config.victim_count = 2;
  config.period = Seconds(10);
  config.start = 0;
  config.end = Seconds(40);
  AdaptiveLeaderAttack attack(config);

  torsim::Harness harness(NetConfig(5));
  AttackContext context;
  context.authority_count = 5;
  context.horizon = Seconds(40);
  attack.Install(harness, context);
  harness.sim().RunUntil(Seconds(40));

  ASSERT_EQ(attack.history().size(), 4u);
  for (size_t epoch = 0; epoch < 4; ++epoch) {
    const NodeId head = static_cast<NodeId>(epoch % 5);
    EXPECT_EQ(attack.history()[epoch].victims,
              (std::vector<NodeId>{head, static_cast<NodeId>((head + 1) % 5)}));
  }
}

TEST(AdaptiveLeaderAttackTest, ChasesTheReportedLeader) {
  AdaptiveLeaderConfig config;
  config.victim_count = 1;
  config.period = Seconds(10);
  config.end = Seconds(30);
  AdaptiveLeaderAttack attack(config);

  torsim::Harness harness(NetConfig(4));
  // A scripted "agreement": the leader advances every probe.
  NodeId next_leader = 2;
  AttackContext context;
  context.authority_count = 4;
  context.horizon = Seconds(30);
  context.current_leader = [&next_leader]() -> std::optional<NodeId> {
    const NodeId leader = next_leader;
    next_leader = static_cast<NodeId>((next_leader + 1) % 4);
    return leader;
  };
  attack.Install(harness, context);
  harness.sim().RunUntil(Seconds(30));

  ASSERT_EQ(attack.history().size(), 3u);
  EXPECT_EQ(attack.history()[0].victims, std::vector<NodeId>{2});
  EXPECT_EQ(attack.history()[1].victims, std::vector<NodeId>{3});
  EXPECT_EQ(attack.history()[2].victims, std::vector<NodeId>{0});
  // Each epoch's clamp landed on the chased node.
  EXPECT_DOUBLE_EQ(harness.net().egress(2).RateAt(Seconds(5)), kUnderAttackBps);
  EXPECT_DOUBLE_EQ(harness.net().egress(3).RateAt(Seconds(15)), kUnderAttackBps);
  EXPECT_DOUBLE_EQ(harness.net().egress(0).RateAt(Seconds(25)), kUnderAttackBps);
  EXPECT_DOUBLE_EQ(harness.net().egress(1).RateAt(Seconds(25)), 250e6);
}

TEST(AttackScheduleTest, HistoryClearsBetweenRuns) {
  RollingAttackConfig config;
  config.victim_count = 1;
  config.period = Seconds(10);
  config.end = Seconds(20);
  RollingAttack attack(config);
  AttackContext context;
  context.authority_count = 3;
  context.horizon = Seconds(20);
  {
    torsim::Harness harness(NetConfig(3));
    attack.Install(harness, context);
  }
  EXPECT_EQ(attack.history().size(), 2u);
  attack.ClearHistory();
  EXPECT_TRUE(attack.history().empty());
  {
    torsim::Harness harness(NetConfig(3));
    attack.Install(harness, context);
  }
  EXPECT_EQ(attack.history().size(), 2u);
}

}  // namespace
}  // namespace torattack
