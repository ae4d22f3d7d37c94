// Tests for ScenarioRunner's one run path (Run is a one-cell Sweep) and the
// paper's metrics read off it: success/latency/byte accounting for all three
// protocols, the two-phase agreement plumbing and the Figure 7
// bandwidth-requirement search.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/scenario/runner.h"

namespace torscenario {
namespace {

ScenarioSpec Spec(const std::string& protocol, size_t relay_count) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.relay_count = relay_count;
  return spec;
}

ScenarioResult RunOnce(const ScenarioSpec& spec) {
  ScenarioRunner runner;
  return runner.Run(spec);
}

std::shared_ptr<torattack::WindowedAttack> Knockout(uint32_t victims, torbase::TimePoint end) {
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(victims);
  window.start = 0;
  window.end = end;
  return std::make_shared<torattack::WindowedAttack>(std::vector<torattack::AttackWindow>{window});
}

TEST(RunPathTest, RunLeavesTheCallersAttackScheduleUntouched) {
  ScenarioSpec spec = Spec("current", 300);
  spec.attack = Knockout(5, torbase::Minutes(5));
  ScenarioRunner runner;
  const ScenarioResult memoized = runner.Run(spec);
  runner.set_memoize(false);
  const ScenarioResult simulated = runner.Run(spec);
  const ScenarioResult inspected = runner.Run(
      spec, [](torsim::Harness&, const std::vector<torsim::Actor*>&) {});
  // Each run installs a private clone: the history lands in the result, and
  // the caller's schedule never records anything.
  EXPECT_FALSE(memoized.attack_history.empty());
  EXPECT_EQ(simulated.attack_history, memoized.attack_history);
  EXPECT_EQ(inspected.attack_history, memoized.attack_history);
  EXPECT_TRUE(spec.attack->history().empty());
}

TEST(RunPathTest, OneCellSweepMovesTheCountersExactlyAsRun) {
  ScenarioSpec spec = Spec("icps", 200);
  spec.attack = Knockout(3, torbase::Minutes(2));
  for (const bool memoize : {true, false}) {
    for (const unsigned threads : {1u, 8u}) {
      ScenarioRunner by_run;
      ScenarioRunner by_sweep;
      by_run.set_memoize(memoize);
      by_sweep.set_memoize(memoize);
      for (int repeat = 0; repeat < 2; ++repeat) {
        const ScenarioResult run = by_run.Run(spec);
        const std::vector<ScenarioResult> sweep = by_sweep.Sweep({spec}, SweepOptions{threads});
        ASSERT_EQ(sweep.size(), 1u);
        EXPECT_TRUE(BitIdentical(run, sweep[0]));
        EXPECT_EQ(by_run.workload_cache_hits(), by_sweep.workload_cache_hits());
        EXPECT_EQ(by_run.workload_cache_misses(), by_sweep.workload_cache_misses());
        EXPECT_EQ(by_run.workload_cache_size(), by_sweep.workload_cache_size());
        EXPECT_EQ(by_run.result_memo_hits(), by_sweep.result_memo_hits());
        EXPECT_EQ(by_run.result_memo_misses(), by_sweep.result_memo_misses());
        EXPECT_EQ(by_run.result_memo_size(), by_sweep.result_memo_size());
      }
      EXPECT_EQ(by_run.workload_cache_misses(), 1u);
      EXPECT_EQ(by_run.workload_cache_hits(), 1u);
      EXPECT_EQ(by_run.result_memo_misses(), memoize ? 1u : 0u);
      EXPECT_EQ(by_run.result_memo_hits(), memoize ? 1u : 0u);
    }
  }
}

TEST(RunnerTest, CurrentProtocolHealthyRun) {
  const ScenarioResult result = RunOnce(Spec("current", 400));
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.valid_count, 9u);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_LT(result.latency_seconds, 60.0);
  EXPECT_GT(result.consensus_relays, 390u);
  EXPECT_GT(result.total_bytes_sent, 0u);
  EXPECT_GT(result.bytes_by_kind.at("VOTE"), result.bytes_by_kind.at("SIG"));
}

TEST(RunnerTest, AllThreeProtocolsAgreeOnHealthySuccess) {
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    const ScenarioResult result = RunOnce(Spec(protocol, 300));
    EXPECT_TRUE(result.succeeded) << protocol;
    EXPECT_EQ(result.valid_count, 9u) << protocol;
  }
}

TEST(RunnerTest, FailureYieldsNanLatency) {
  ScenarioSpec spec = Spec("current", 800);
  spec.attack = Knockout(5, torbase::Minutes(5));
  const ScenarioResult result = RunOnce(spec);
  EXPECT_FALSE(result.succeeded);
  EXPECT_TRUE(std::isnan(result.latency_seconds));
  EXPECT_TRUE(std::isnan(result.finish_time_seconds));
}

TEST(RunnerTest, ResultDefaultsToNanNotZero) {
  // Failed runs carry NaN latency/finish; a default (unpopulated) result must
  // not masquerade as a zero-latency success.
  const ScenarioResult result;
  EXPECT_FALSE(result.succeeded);
  EXPECT_TRUE(std::isnan(result.latency_seconds));
  EXPECT_TRUE(std::isnan(result.finish_time_seconds));
}

TEST(RunnerTest, DeterministicAcrossRunners) {
  const ScenarioSpec spec = Spec("icps", 250);
  EXPECT_TRUE(BitIdentical(RunOnce(spec), RunOnce(spec)));
}

TEST(RunnerTest, SynchronousMovesMoreBytesThanCurrent) {
  const ScenarioResult current = RunOnce(Spec("current", 400));
  const ScenarioResult sync = RunOnce(Spec("synchronous", 400));
  // The packed-vote phase replicates every list n more times: ~5-9x traffic.
  EXPECT_GT(sync.total_bytes_sent, 4 * current.total_bytes_sent);
}

TEST(RunnerTest, TwoPhaseAgreementIsFasterNeverSlower) {
  ScenarioSpec spec = Spec("icps", 300);
  const ScenarioResult three_phase = RunOnce(spec);
  spec.two_phase_agreement = true;
  const ScenarioResult two_phase = RunOnce(spec);
  ASSERT_TRUE(three_phase.succeeded);
  ASSERT_TRUE(two_phase.succeeded);
  EXPECT_LT(two_phase.latency_seconds, three_phase.latency_seconds);
}

TEST(RunnerTest, SmallerAuthorityCountsWork) {
  for (uint32_t n : {4u, 7u, 13u}) {
    ScenarioSpec spec = Spec("icps", 150);
    spec.authority_count = n;
    const ScenarioResult result = RunOnce(spec);
    EXPECT_TRUE(result.succeeded) << "n = " << n;
    EXPECT_EQ(result.valid_count, n) << "n = " << n;
  }
}

TEST(RunnerTest, BandwidthRequirementBracketsAndIsMonotone) {
  ScenarioRunner runner;
  ScenarioSpec spec = Spec("current", 800);
  spec.horizon = torbase::Minutes(15);
  const double small = FindBandwidthRequirement(runner, spec, 5, 0.2e6, 25e6, /*probes=*/5);
  spec.relay_count = 2400;
  const double large = FindBandwidthRequirement(runner, spec, 5, 0.2e6, 25e6, /*probes=*/5);
  EXPECT_GT(small, 0.2e6);
  EXPECT_LT(small, 25e6);
  // Requirement grows with the relay count (Figure 7's monotonicity).
  EXPECT_GT(large, small);
  // And roughly linearly: 3x the relays within [1.5x, 6x] the bandwidth.
  EXPECT_GT(large, 1.5 * small);
  EXPECT_LT(large, 6.0 * small);
}

TEST(RunnerTest, BandwidthRequirementRefusesUnjoinableSchedules) {
  // Only windowed attacks can be joined with the probe clamp.
  ScenarioRunner runner;
  ScenarioSpec spec = Spec("current", 200);
  spec.attack = std::make_shared<torattack::RollingAttack>(torattack::RollingAttackConfig{});
  EXPECT_TRUE(std::isnan(FindBandwidthRequirement(runner, spec, 5, 0.2e6, 25e6, 1)));
  EXPECT_EQ(runner.result_memo_misses(), 0u);
}

TEST(RunnerTest, IcpsSucceedsWhereCurrentFails) {
  // The headline comparison as a single assertion pair.
  ScenarioSpec spec = Spec("current", 1000);
  spec.bandwidth_bps = torsim::MegabitsPerSecond(1);
  EXPECT_FALSE(RunOnce(spec).succeeded);
  spec.protocol = "icps";
  EXPECT_TRUE(RunOnce(spec).succeeded);
}

}  // namespace
}  // namespace torscenario
