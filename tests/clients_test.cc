// Tests for the consumption plane (src/clients): the aggregate fluid client
// model's freshness accounting, outage/hard-down detection, cache capacity
// limiting, backlog dynamics, and its O(caches) (client-count-independent)
// cost model.
#include <gtest/gtest.h>

#include <cmath>

#include "src/clients/population.h"

namespace torclients {
namespace {

constexpr double kPeriod = 3600.0;
constexpr double kLead = 600.0;

ClientLoadSpec MillionClients() {
  ClientLoadSpec spec;
  spec.client_count = 1'000'000;
  return spec;
}

// A healthy round: published at 300 s (inside the lead window), fresh for the
// following period.
PublishedDocument HealthyDocument() {
  PublishedDocument doc;
  doc.published_seconds = 300.0;
  doc.fresh_until_seconds = kLead + kPeriod;
  doc.valid_until_seconds = kLead + 3 * kPeriod;
  doc.size_bytes = 800e3;
  return doc;
}

TEST(ClientPopulationTest, HealthyRoundServesAllDemandFresh) {
  const auto result = SimulateClientLoad(MillionClients(), {HealthyDocument()}, kPeriod);

  // Demand conservation: one fetch per client per period.
  EXPECT_DOUBLE_EQ(result.total_fetches, 1e6);
  EXPECT_NEAR(result.fresh_fetches + result.stale_fetches + result.unserved_fetches,
              result.total_fetches, 1e-6);

  // The prior document covers [0, 600); the new one lands at 310 — fresh
  // service throughout, no outage, nothing unserved.
  EXPECT_DOUBLE_EQ(result.fresh_fraction, 1.0);
  EXPECT_EQ(result.stale_fetches, 0.0);
  EXPECT_EQ(result.unserved_fetches, 0.0);
  EXPECT_EQ(result.outage_seconds, 0.0);
  EXPECT_EQ(result.hard_down_seconds, 0.0);
  EXPECT_TRUE(std::isnan(result.time_to_first_stale_seconds));
  EXPECT_TRUE(std::isnan(result.outage_start_seconds));
}

TEST(ClientPopulationTest, FailedRoundGoesStaleWhenThePriorExpires) {
  ClientLoadSpec spec = MillionClients();
  spec.consensus_size_hint_bytes = 800e3;  // no document provides a size
  const auto result = SimulateClientLoad(spec, {}, kPeriod);

  // The prior document is fresh until vote_lead, stale afterwards: the
  // client-visible outage spans the rest of the period.
  EXPECT_DOUBLE_EQ(result.time_to_first_stale_seconds, kLead);
  EXPECT_DOUBLE_EQ(result.outage_start_seconds, kLead);
  EXPECT_DOUBLE_EQ(result.outage_seconds, kPeriod - kLead);
  EXPECT_NEAR(result.fresh_fraction, kLead / kPeriod, 1e-9);
  // Still valid for another two periods: served stale, not down.
  EXPECT_EQ(result.hard_down_seconds, 0.0);
  EXPECT_EQ(result.unserved_fetches, 0.0);
}

TEST(ClientPopulationTest, ThreeMissedRoundsHardDownTheNetwork) {
  // The paper's §2.1 arithmetic, client-side: with no successful round, the
  // prior document expires two periods (validity 3 h) after the lead and
  // every fetch after that fails outright.
  ClientLoadSpec spec = MillionClients();
  spec.consensus_size_hint_bytes = 800e3;
  const double window = 4 * kPeriod;
  const auto result = SimulateClientLoad(spec, {}, window);

  const double down_at = kLead + 2 * kPeriod;
  EXPECT_DOUBLE_EQ(result.hard_down_start_seconds, down_at);
  EXPECT_DOUBLE_EQ(result.hard_down_seconds, window - down_at);
  EXPECT_DOUBLE_EQ(result.outage_start_seconds, kLead);
  EXPECT_DOUBLE_EQ(result.outage_seconds, window - kLead);
  // While down, steady refetches fail and bootstrapping clients queue.
  EXPECT_GT(result.unserved_fetches, 0.0);
  EXPECT_GT(result.peak_backlog_fetches, 0.0);
}

TEST(ClientPopulationTest, RecoveryDrainsTheBootstrapBacklog) {
  // Down for two periods, then a round succeeds: the queued bootstraps are
  // served when the document returns (the post-outage thundering herd).
  ClientLoadSpec spec = MillionClients();
  spec.consensus_size_hint_bytes = 800e3;
  PublishedDocument late;
  late.published_seconds = kLead + 2.5 * kPeriod;
  late.fresh_until_seconds = kLead + 3.5 * kPeriod;
  late.valid_until_seconds = kLead + 5.5 * kPeriod;
  late.size_bytes = 800e3;
  const double window = 4 * kPeriod;
  const auto result = SimulateClientLoad(spec, {late}, window);

  EXPECT_GT(result.hard_down_seconds, 0.0);
  EXPECT_GT(result.peak_backlog_fetches, 0.0);
  // Every queued bootstrap is eventually served (ample cache capacity), so
  // unserved demand is exactly the steady fetches that failed while down.
  const double down = result.hard_down_seconds;
  const double steady_rate = 1e6 * (1.0 - kBootstrapFraction) / kPeriod;
  EXPECT_NEAR(result.unserved_fetches, steady_rate * down, 1.0);
  // Demand is conserved.
  EXPECT_NEAR(result.fresh_fetches + result.stale_fetches + result.unserved_fetches,
              result.total_fetches, 1e-6);
}

TEST(ClientPopulationTest, CacheCapacityLimitsServedDemand) {
  // Starve the cache tier: 16 caches x 1 Gbit/s serving a million clients
  // fetching 800 MB documents cannot keep up; the backlog never drains.
  PublishedDocument huge = HealthyDocument();
  huge.size_bytes = 800e6;
  const auto result = SimulateClientLoad(MillionClients(), {huge}, kPeriod);

  // 16 x 1 Gbit/s x 3600 s / 6.4 Gbit per fetch = 9,000 servable fetches.
  const double servable = kCacheCount * kCacheBandwidthBps * kPeriod / (800e6 * 8.0);
  EXPECT_DOUBLE_EQ(servable, 9000.0);
  EXPECT_NEAR(result.fresh_fetches, servable, 1.0);
  EXPECT_LT(result.fresh_fraction, 0.02);
  EXPECT_GT(result.unserved_fetches, 9.5e5);
  // The backlog tracks blocked *bootstraps* only (50,000 = 5% of 1M);
  // capacity-starved steady refetches count unserved, they do not queue.
  EXPECT_NEAR(result.peak_backlog_fetches, 5e4, 1.0);
}

TEST(ClientPopulationTest, CostIsIndependentOfClientCount) {
  // The fluid model's cost is O(caches + documents), not O(clients): the
  // timeline (the work actually done) has the same shape for 1e3 and 5e6
  // clients, and scaling the population only scales the fluid counts.
  ClientLoadSpec small = MillionClients();
  small.client_count = 1'000;
  ClientLoadSpec large = MillionClients();
  large.client_count = 5'000'000;

  const auto small_result = SimulateClientLoad(small, {HealthyDocument()}, kPeriod);
  const auto large_result = SimulateClientLoad(large, {HealthyDocument()}, kPeriod);

  ASSERT_EQ(small_result.timeline.size(), large_result.timeline.size());
  for (size_t i = 0; i < small_result.timeline.size(); ++i) {
    EXPECT_EQ(small_result.timeline[i].state, large_result.timeline[i].state) << i;
    EXPECT_NEAR(large_result.timeline[i].fresh_fetches,
                5000.0 * small_result.timeline[i].fresh_fetches, 1e-3)
        << i;
  }
  EXPECT_DOUBLE_EQ(large_result.total_fetches, 5e6);
}

TEST(ClientPopulationTest, DeterministicAcrossCalls) {
  const ClientLoadSpec spec = MillionClients();
  const auto a = SimulateClientLoad(spec, {HealthyDocument()}, 2 * kPeriod);
  const auto b = SimulateClientLoad(spec, {HealthyDocument()}, 2 * kPeriod);
  EXPECT_EQ(a.fresh_fetches, b.fresh_fetches);
  EXPECT_EQ(a.stale_fetches, b.stale_fetches);
  EXPECT_EQ(a.unserved_fetches, b.unserved_fetches);
  EXPECT_EQ(a.outage_seconds, b.outage_seconds);
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
}

TEST(ClientPopulationTest, TimelineSlicesTileTheWindowAndClassifyStates) {
  ClientLoadSpec spec = MillionClients();
  spec.consensus_size_hint_bytes = 800e3;
  const double window = 3 * kPeriod;
  const auto result = SimulateClientLoad(spec, {}, window);

  ASSERT_FALSE(result.timeline.empty());
  EXPECT_DOUBLE_EQ(result.timeline.front().begin_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.timeline.back().end_seconds, window);
  for (size_t i = 1; i < result.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.timeline[i].begin_seconds, result.timeline[i - 1].end_seconds);
  }
  // fresh (prior) -> stale -> down, in order.
  EXPECT_EQ(result.timeline.front().state, AvailabilitySlice::State::kFresh);
  EXPECT_EQ(result.timeline.back().state, AvailabilitySlice::State::kDown);
}

TEST(ClientPopulationTest, ZeroClientsOrEmptyWindowIsInert) {
  ClientLoadSpec spec = MillionClients();
  spec.client_count = 0;
  EXPECT_EQ(SimulateClientLoad(spec, {HealthyDocument()}, kPeriod).total_fetches, 0.0);
  EXPECT_EQ(SimulateClientLoad(MillionClients(), {HealthyDocument()}, 0.0).total_fetches, 0.0);
}

}  // namespace
}  // namespace torclients
