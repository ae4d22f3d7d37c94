// Property-style parameterized suites (TEST_P) covering cross-cutting
// invariants: aggregation determinism and threshold algebra, NIC conservation
// and monotonicity, serialization robustness under mutation (failure
// injection), the attack-majority threshold, and Definition 5.1 invariants
// over a parameter grid.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "src/attack/ddos.h"
#include "src/scenario/runner.h"
#include "src/sim/actor.h"
#include "src/sim/bandwidth.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace {

using torbase::NodeId;

// --- aggregation properties --------------------------------------------------

class AggregationProperty : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(AggregationProperty, DeterministicOrderIndependentAndSorted) {
  const auto [vote_count, seed] = GetParam();
  tordir::PopulationConfig config;
  config.relay_count = 120;
  config.seed = seed;
  const auto population = tordir::GeneratePopulation(config);
  auto votes = tordir::MakeAllVotes(vote_count, population, config);

  const auto baseline = tordir::ComputeConsensus(votes);
  // Determinism.
  EXPECT_EQ(tordir::ComputeConsensus(votes), baseline);
  // Order independence.
  std::rotate(votes.begin(), votes.begin() + 1, votes.end());
  EXPECT_EQ(tordir::ComputeConsensus(votes), baseline);
  std::reverse(votes.begin(), votes.end());
  EXPECT_EQ(tordir::ComputeConsensus(votes), baseline);
  // Canonical order and no Measured fields in the output.
  EXPECT_TRUE(std::is_sorted(baseline.relays.begin(), baseline.relays.end(), tordir::RelayOrder));
  for (const auto& relay : baseline.relays) {
    EXPECT_FALSE(relay.measured.has_value());
  }
  // Inclusion threshold: every consensus relay is listed by a majority.
  const size_t threshold = vote_count / 2 + 1;
  for (const auto& relay : baseline.relays) {
    size_t listings = 0;
    for (const auto& vote : votes) {
      for (const auto& candidate : vote.relays) {
        if (candidate.fingerprint == relay.fingerprint) {
          ++listings;
          break;
        }
      }
    }
    EXPECT_GE(listings, threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AggregationProperty,
                         ::testing::Combine(::testing::Values(3u, 5u, 7u, 9u),
                                            ::testing::Values(1u, 17u, 99u)));

// --- serialization robustness (failure injection) -----------------------------

class VoteMutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VoteMutationProperty, MutatedDocumentsNeverCrashAndRoundTripsAreExact) {
  const uint64_t seed = GetParam();
  tordir::PopulationConfig config;
  config.relay_count = 40;
  config.seed = seed;
  const auto population = tordir::GeneratePopulation(config);
  const auto vote = tordir::MakeVote(seed % 9, 9, population, config);
  const std::string text = tordir::SerializeVote(vote);

  // Exact round trip.
  auto parsed = tordir::ParseVote(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, vote);
  EXPECT_EQ(tordir::SerializeVote(*parsed), text);

  // Byte-level mutations: the parser must either fail cleanly or accept the
  // writer's own bytes — never crash. An accepted mutant re-serializes to
  // itself exactly, which is what makes digests a sound identity for
  // equivocation detection.
  torbase::Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = text;
    const size_t pos = rng.UniformU64(mutated.size());
    mutated[pos] = static_cast<char>(rng.UniformRange(32, 126));
    auto result = tordir::ParseVote(mutated);
    if (result.ok()) {
      EXPECT_EQ(tordir::SerializeVote(*result), mutated);
    }
  }
  // Truncations that cut into the body fail cleanly.
  for (size_t cut : {size_t{0}, text.size() / 3, text.size() / 2}) {
    auto result = tordir::ParseVote(text.substr(0, cut));
    EXPECT_FALSE(result.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoteMutationProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- NIC properties ------------------------------------------------------------

class NicProperty : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(NicProperty, ConservationAndFairShareBounds) {
  const auto [bandwidth_mbps, message_count] = GetParam();
  torsim::Simulator sim;
  torsim::NetworkConfig config;
  config.node_count = 2;
  config.default_bandwidth_bps = bandwidth_mbps * 1e6;
  config.default_latency = torbase::Millis(10);
  torsim::Network net(&sim, config);

  int delivered = 0;
  torbase::TimePoint last_delivery = 0;
  net.SetHandler(1, [&](NodeId, const torbase::Frame&) {
    ++delivered;
    last_delivery = sim.now();
  });
  const size_t payload_bytes = 50000;
  for (int i = 0; i < message_count; ++i) {
    net.Send(0, 1, "DATA", torbase::Bytes(payload_bytes, 0xaa));
  }
  sim.Run();

  // Conservation: every message delivered exactly once.
  EXPECT_EQ(delivered, message_count);
  EXPECT_EQ(net.counters(1).messages_received, static_cast<uint64_t>(message_count));

  // Fluid bound: total bits through egress + ingress cannot beat the link
  // rate; completion >= 2 * total_bits / rate (egress then ingress stages).
  const double total_bits = 8.0 * payload_bytes * message_count;
  const double rate = bandwidth_mbps * 1e6;
  const double lower_bound_us = 2.0 * total_bits / rate * 1e6;
  EXPECT_GE(static_cast<double>(last_delivery) + 1, lower_bound_us);
  // And it is not absurdly slower (within 2x + latency slack).
  EXPECT_LE(static_cast<double>(last_delivery), 2.5 * lower_bound_us + 1e6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NicProperty,
                         ::testing::Combine(::testing::Values(0.5, 5.0, 100.0),
                                            ::testing::Values(1, 4, 16)));

TEST(NicMonotonicityTest, MoreBandwidthNeverDeliversLater) {
  torbase::TimePoint previous = torbase::kTimeNever;
  for (double mbps : {0.5, 1.0, 5.0, 25.0, 125.0}) {
    torsim::Simulator sim;
    torsim::NetworkConfig config;
    config.node_count = 2;
    config.default_bandwidth_bps = mbps * 1e6;
    config.default_latency = torbase::Millis(10);
    torsim::Network net(&sim, config);
    torbase::TimePoint delivered_at = 0;
    net.SetHandler(1, [&](NodeId, const torbase::Frame&) { delivered_at = sim.now(); });
    for (int i = 0; i < 6; ++i) {
      net.Send(0, 1, "DATA", torbase::Bytes(200000, 1));
    }
    sim.Run();
    EXPECT_LE(delivered_at, previous) << "at " << mbps << " Mbit/s";
    previous = delivered_at;
  }
}

// --- attack threshold property -------------------------------------------------

class AttackMajorityProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AttackMajorityProperty, AttackSucceedsIffMajorityTargeted) {
  const uint32_t victims = GetParam();
  torscenario::ScenarioSpec spec;
  spec.protocol = "current";
  spec.relay_count = 800;
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(victims);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = torattack::kUnderAttackBps;
  if (victims > 0) {
    spec.attack = std::make_shared<torattack::WindowedAttack>(
        std::vector<torattack::AttackWindow>{window});
  }
  torscenario::ScenarioRunner runner;
  const auto result = runner.Run(spec);
  // The directory protocol tolerates any minority of unreachable authorities
  // (§4.2): flooding fewer than 5 of 9 must not break it.
  EXPECT_EQ(result.succeeded, victims < 5) << victims << " victims";
}

INSTANTIATE_TEST_SUITE_P(VictimCounts, AttackMajorityProperty,
                         ::testing::Values(0u, 3u, 4u, 5u, 6u));

// --- ICPS Definition 5.1 invariants over a grid ---------------------------------

class IcpsDefinitionProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(IcpsDefinitionProperty, TerminationAgreementAndCommonSetValidity) {
  const auto [relay_count, bandwidth_mbps] = GetParam();
  torscenario::ScenarioSpec spec;
  spec.protocol = "icps";
  spec.relay_count = relay_count;
  spec.bandwidth_bps = bandwidth_mbps * 1e6;
  spec.horizon = torbase::Hours(2);
  torscenario::ScenarioRunner runner;
  const auto result = runner.Run(spec);
  // Termination + validity at every authority, any bandwidth.
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.valid_count, 9u);
  // Common-set validity: the consensus covers (almost) the full population —
  // all 9 documents flow in when every node is correct.
  EXPECT_GT(result.consensus_relays, relay_count * 95 / 100);
}

INSTANTIATE_TEST_SUITE_P(Grid, IcpsDefinitionProperty,
                         ::testing::Combine(::testing::Values(size_t{200}, size_t{1000}),
                                            ::testing::Values(2.0, 50.0)));

// --- bandwidth schedule algebra -------------------------------------------------

class ScheduleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleProperty, FinishTimeConsistentWithCapacity) {
  const uint64_t seed = GetParam();
  torbase::Rng rng(seed);
  torsim::BandwidthSchedule schedule(torsim::MegabitsPerSecond(rng.UniformRange(1, 100)));
  // Random piecewise schedule.
  torbase::TimePoint t = 0;
  for (int i = 0; i < 8; ++i) {
    t += torbase::Seconds(rng.UniformRange(1, 30));
    schedule.SetRateFrom(t, torsim::MegabitsPerSecond(rng.UniformRange(0, 50)));
  }
  schedule.SetRateFrom(t + torbase::Minutes(10), torsim::MegabitsPerSecond(10));

  for (int trial = 0; trial < 20; ++trial) {
    const torbase::TimePoint start = torbase::Seconds(rng.UniformRange(0, 120));
    const double bits = static_cast<double>(rng.UniformRange(1000, 50'000'000));
    const torbase::TimePoint finish = schedule.FinishTime(start, bits);
    ASSERT_NE(finish, torbase::kTimeNever);
    ASSERT_GE(finish, start);
    // The interval [start, finish) carries at least `bits`…
    EXPECT_GE(schedule.CapacityDuring(start, finish) + 1.0, bits);
    // …and stopping 1 ms earlier would not have been enough (tightness),
    // unless the transfer was instantaneous.
    if (finish > start + torbase::Millis(1)) {
      EXPECT_LT(schedule.CapacityDuring(start, finish - torbase::Millis(1)), bits);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
