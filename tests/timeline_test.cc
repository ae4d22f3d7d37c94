// Tests for the long-horizon timeline engine (src/scenario/timeline.h):
// calendar -> per-round spec derivation and validation, thread-count
// bit-identity of RunTimeline, the stitch's one derivation per distinct
// published document, each boundary's crashed set in the runner's churn
// order, the golden 48-round recovery trace (who failed, who was fresh, who
// rejoined at what cost), the paper's three-hour validity arithmetic on the
// horizon client plane, and the per-protocol snapshot/restore round-trip
// that pins the AuthorityRoundState seam.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/crypto/sha256_tree.h"
#include "src/crypto/signature.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/runner.h"
#include "src/scenario/timeline.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace torscenario {
namespace {

using torbase::Hours;
using torbase::Minutes;

// 5 of 9 authorities cut to 0 bps for the first `length` of a round. Five
// minutes is the paper's full DDoS; a whole round leaves no majority of votes
// anywhere, so `current` publishes nothing that round.
std::shared_ptr<torattack::AttackSchedule> KnockOut(torbase::Duration length) {
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = length;
  window.available_bps = 0.0;
  return std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
}

std::shared_ptr<torattack::AttackSchedule> FiveMinuteDdos() { return KnockOut(Minutes(5)); }

TimelineSpec SmallTimeline() {
  TimelineSpec timeline;
  timeline.name = "test";
  timeline.base.name = "test";
  timeline.base.protocol = "current";
  timeline.base.relay_count = 200;
  timeline.base.seed = 1;
  timeline.rounds = 6;
  timeline.round_period = Hours(1);
  return timeline;
}

TEST(TimelineSpecTest, BuildRoundSpecsResolvesCalendars) {
  TimelineSpec timeline = SmallTimeline();
  timeline.attacks.push_back(AttackCalendarEntry{1, 2, FiveMinuteDdos()});
  timeline.crashes.push_back(CrashCalendarEntry{7, 1, Minutes(10), 3, Minutes(5)});
  ByzantineCalendarEntry byz;
  byz.first_round = 2;
  byz.last_round = 3;
  byz.spec.behaviors[3] = torproto::ByzantineBehavior::kEquivocate;
  timeline.byzantine.push_back(byz);
  timeline.churn.push_back(
      ChurnCalendarEntry{4, ChurnEvent{8, Minutes(3), ChurnEvent::Kind::kCrash}});

  const std::vector<ScenarioSpec> specs = BuildTimelineRoundSpecs(timeline);
  ASSERT_EQ(specs.size(), 6u);
  for (const ScenarioSpec& spec : specs) {
    EXPECT_EQ(spec.horizon, Hours(1));
    EXPECT_EQ(spec.client_load.client_count, 0u);  // one plane, run by the stitch
    EXPECT_TRUE(spec.retain_consensus);
    EXPECT_EQ(spec.previous_consensus, nullptr);
  }
  // Attack windows land on exactly their calendar rounds.
  EXPECT_EQ(specs[0].attack, nullptr);
  EXPECT_NE(specs[1].attack, nullptr);
  EXPECT_NE(specs[2].attack, nullptr);
  EXPECT_EQ(specs[3].attack, nullptr);
  // The crash decomposes: offset crash in round 1, down-from-start in round 2,
  // down-from-start plus recover in round 3, gone afterwards.
  ASSERT_EQ(specs[1].churn.size(), 1u);
  EXPECT_EQ(specs[1].churn[0].at, Minutes(10));
  EXPECT_EQ(specs[1].churn[0].kind, ChurnEvent::Kind::kCrash);
  ASSERT_EQ(specs[2].churn.size(), 1u);
  EXPECT_EQ(specs[2].churn[0].at, 0);
  ASSERT_EQ(specs[3].churn.size(), 2u);
  EXPECT_EQ(specs[3].churn[0].kind, ChurnEvent::Kind::kCrash);
  EXPECT_EQ(specs[3].churn[0].at, 0);
  EXPECT_EQ(specs[3].churn[1].kind, ChurnEvent::Kind::kRecover);
  EXPECT_EQ(specs[3].churn[1].at, Minutes(5));
  EXPECT_TRUE(specs[4].churn.size() == 1u && specs[4].churn[0].node == 8);
  // The byzantine behavior flips on for rounds 2-3 only.
  EXPECT_TRUE(specs[1].byzantine.empty());
  EXPECT_EQ(specs[2].byzantine.behaviors.count(3), 1u);
  EXPECT_EQ(specs[3].byzantine.behaviors.count(3), 1u);
  EXPECT_TRUE(specs[4].byzantine.empty());
}

TEST(TimelineTest, TimelineIsBitIdenticalAcrossThreadCounts) {
  TimelineSpec timeline = SmallTimeline();
  timeline.base.client_load.client_count = 200000;
  timeline.base.client_load.diff_capable_fraction = 0.8;
  // One of everything: an attacked round, a crash spanning successful rounds
  // (so the rejoin composes a diff chain), a byzantine flip, a churn blip.
  timeline.attacks.push_back(AttackCalendarEntry{1, 1, FiveMinuteDdos()});
  timeline.crashes.push_back(CrashCalendarEntry{7, 1, Minutes(1), 4, Minutes(2)});
  ByzantineCalendarEntry byz;
  byz.first_round = 2;
  byz.last_round = 3;
  byz.spec.behaviors[3] = torproto::ByzantineBehavior::kEquivocate;
  timeline.byzantine.push_back(byz);
  timeline.churn.push_back(
      ChurnCalendarEntry{5, ChurnEvent{8, Minutes(3), ChurnEvent::Kind::kCrash}});
  timeline.churn.push_back(
      ChurnCalendarEntry{5, ChurnEvent{8, Minutes(10), ChurnEvent::Kind::kRecover}});

  ScenarioRunner runner;
  const TimelineResult serial = runner.RunTimeline(timeline);

  // The engine saw the calendar: the attacked round failed, the others
  // published, the crashed authority rejoined through the diff chain.
  ASSERT_EQ(serial.rounds.size(), 6u);
  ASSERT_EQ(serial.snapshots.size(), 6u);
  EXPECT_FALSE(serial.rounds[1].succeeded);
  EXPECT_EQ(serial.successful_rounds, 5u);
  EXPECT_EQ(serial.byzantine_injected, 2u);  // one equivocator, two rounds
  EXPECT_GT(serial.undeliverable_messages, 0u);
  ASSERT_EQ(serial.rejoins.size(), 1u);
  EXPECT_EQ(serial.rejoins[0].node, 7u);
  EXPECT_EQ(serial.rejoins[0].round, 4u);
  EXPECT_EQ(serial.rejoins[0].rounds_behind, 2u);  // held round 0; rounds 2, 3 missed
  EXPECT_TRUE(serial.rejoins[0].via_diff_chain);
  EXPECT_FALSE(serial.rejoins[0].chain_refused);
  EXPECT_GT(serial.rejoins[0].bytes, 0u);
  EXPECT_TRUE(serial.client_availability.enabled);
  // The failed round's boundary is carried by the previous document: stale,
  // not fresh — and the snapshot still points at round 0's consensus.
  EXPECT_TRUE(serial.snapshots[0].fresh_at_boundary);
  EXPECT_FALSE(serial.snapshots[1].fresh_at_boundary);
  EXPECT_EQ(serial.snapshots[1].consensus_round, 0u);
  EXPECT_EQ(serial.snapshots[1].crashed, (std::vector<torbase::NodeId>{7}));
  EXPECT_NE(serial.snapshots[2].diff_from_previous, nullptr);

  for (const unsigned threads : {2u, 8u}) {
    ScenarioRunner fresh;
    const TimelineResult parallel = fresh.RunTimeline(timeline, SweepOptions{threads});
    EXPECT_TRUE(BitIdentical(serial, parallel)) << threads << " threads";
  }
  // And rerunning serially on the warm runner changes nothing either.
  EXPECT_TRUE(BitIdentical(serial, runner.RunTimeline(timeline)));
}

// Memoized rounds share one document pointer, and the stitch serializes and
// digests each distinct document, and diffs each distinct consecutive pair,
// once: rounds H, A, H, H, A (A = authority 8 down from 30 s) publish two
// documents and three pairs, and the repeated ones share one derivation. The
// shared values are exactly what a per-round derivation computes, at any
// thread count and on the reference runner, where no pointer repeats.
TEST(TimelineTest, StitchDerivesEachDistinctDocumentOnce) {
  TimelineSpec timeline = SmallTimeline();
  timeline.rounds = 5;
  for (const uint32_t round : {1u, 4u}) {
    timeline.churn.push_back(ChurnCalendarEntry{
        round, ChurnEvent{8, torbase::Seconds(30), ChurnEvent::Kind::kCrash}});
  }
  ScenarioRunner runner;
  const TimelineResult result = runner.RunTimeline(timeline);
  ASSERT_EQ(result.successful_rounds, 5u);

  const std::vector<RoundSnapshot>& snapshots = result.snapshots;
  // Pointers compare as addresses, so a failure prints no document.
  EXPECT_EQ(snapshots[2].consensus_text.get(), snapshots[0].consensus_text.get());
  EXPECT_EQ(snapshots[3].consensus_text.get(), snapshots[0].consensus_text.get());
  EXPECT_EQ(snapshots[4].consensus_text.get(), snapshots[1].consensus_text.get());
  EXPECT_TRUE(*snapshots[1].consensus_text != *snapshots[0].consensus_text);
  ASSERT_NE(snapshots[1].diff_from_previous, nullptr);
  EXPECT_EQ(snapshots[4].diff_from_previous.get(), snapshots[1].diff_from_previous.get());
  for (size_t r = 0; r < snapshots.size(); ++r) {
    const RoundSnapshot& snapshot = snapshots[r];
    EXPECT_TRUE(*snapshot.consensus_text == tordir::SerializeConsensus(*snapshot.consensus)) << r;
    EXPECT_EQ(snapshot.consensus_digest,
              torcrypto::Digest256(torcrypto::Sha256TreeDigest(*snapshot.consensus_text)))
        << r;
    if (r > 0) {
      // The codec derives both framing digests itself here.
      EXPECT_TRUE(*snapshot.diff_from_previous ==
                  tordir::ComputeConsensusDiff(*snapshots[r - 1].consensus, *snapshot.consensus))
          << r;
    }
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    ScenarioRunner fresh;
    EXPECT_TRUE(BitIdentical(result, fresh.RunTimeline(timeline, SweepOptions{threads})))
        << threads << " threads";
  }
  ScenarioRunner reference;
  reference.set_reference(true);
  EXPECT_TRUE(BitIdentical(result, reference.RunTimeline(timeline, SweepOptions{8})));
}

// A round's crashed set is its churn replayed in the order the runner applies
// it, by offset, whatever order the calendar lists the entries in.
TEST(TimelineTest, CrashedSetFollowsTheRunnersChurnOrder) {
  ScenarioRunner runner;

  // A blip listed recover-first: authority 8 is down from 30 s to 5 min, so
  // it is up at the boundary and holds the round's consensus.
  TimelineSpec blip = SmallTimeline();
  blip.rounds = 3;
  blip.churn.push_back(
      ChurnCalendarEntry{1, ChurnEvent{8, Minutes(5), ChurnEvent::Kind::kRecover}});
  blip.churn.push_back(
      ChurnCalendarEntry{1, ChurnEvent{8, torbase::Seconds(30), ChurnEvent::Kind::kCrash}});
  const TimelineResult recover_first = runner.RunTimeline(blip);
  EXPECT_EQ(recover_first.rounds[1].consensus_holders.size(), 9u);
  EXPECT_TRUE(recover_first.snapshots[1].crashed.empty());
  std::swap(blip.churn[0], blip.churn[1]);
  EXPECT_TRUE(BitIdentical(recover_first, runner.RunTimeline(blip)));

  // A blip crashing authority 7 at 10 min in the round its calendar crash
  // recovers in, at 20 min: it is down in round 1, back at round 2's
  // boundary, and its rejoin is charged to round 2.
  TimelineSpec overlap = SmallTimeline();
  overlap.rounds = 4;
  overlap.crashes.push_back(CrashCalendarEntry{7, 1, Minutes(1), 2, Minutes(20)});
  overlap.churn.push_back(
      ChurnCalendarEntry{2, ChurnEvent{7, Minutes(10), ChurnEvent::Kind::kCrash}});
  const TimelineResult result = runner.RunTimeline(overlap);
  EXPECT_EQ(result.snapshots[1].crashed, (std::vector<torbase::NodeId>{7}));
  EXPECT_TRUE(result.snapshots[2].crashed.empty());
  ASSERT_EQ(result.rejoins.size(), 1u);
  EXPECT_EQ(result.rejoins[0].node, 7u);
  EXPECT_EQ(result.rejoins[0].round, 2u);
}

// A snapshot's backlog is NaN-aware like every other double in the field
// list: a NaN backlog leaves the snapshot BitIdentical to itself. Consensus
// documents compare by value, so a snapshot holding a different document is
// not BitIdentical even when its digest field matches.
TEST(TimelineTest, SnapshotEqualityIsNanAwareAndComparesDocuments) {
  RoundSnapshot snapshot;
  snapshot.round = 3;
  snapshot.backlog_fetches = std::numeric_limits<double>::quiet_NaN();
  auto doc = std::make_shared<tordir::ConsensusDocument>();
  doc->valid_after = 100;
  snapshot.consensus = doc;
  EXPECT_TRUE(BitIdentical(snapshot, snapshot));

  RoundSnapshot other = snapshot;
  auto other_doc = std::make_shared<tordir::ConsensusDocument>(*doc);
  other.consensus = other_doc;
  EXPECT_TRUE(BitIdentical(snapshot, other));  // equal pointees
  other_doc->valid_after += 1;
  EXPECT_FALSE(BitIdentical(snapshot, other));
}

// The golden 48-round recovery trace: a two-day horizon with an early crash
// pair and a sustained 8-round attack. Pins which rounds published, the
// client-visible freshness at every boundary, every rejoin, and the horizon
// alert set — the recovery dynamics as one deterministic artifact.
TEST(TimelineTest, GoldenFortyEightRoundRecoveryTrace) {
  TimelineSpec timeline = SmallTimeline();
  timeline.rounds = 48;
  timeline.base.client_load.client_count = 500000;
  timeline.base.client_load.diff_capable_fraction = 0.8;
  // Authority 7 crashes during round 2, recovers mid-round 5; authorities
  // 0-4 are flooded for the first five minutes of every round 8 through 15.
  timeline.crashes.push_back(CrashCalendarEntry{7, 2, Minutes(1), 5, Minutes(2)});
  timeline.attacks.push_back(AttackCalendarEntry{8, 15, FiveMinuteDdos()});

  ScenarioRunner runner;
  const TimelineResult result = runner.RunTimeline(timeline, SweepOptions{8});

  ASSERT_EQ(result.snapshots.size(), 48u);
  std::string published;   // S = this round published, . = failed
  std::string freshness;   // F = fresh at the boundary, s = stale/down
  for (const RoundSnapshot& snapshot : result.snapshots) {
    published += snapshot.succeeded ? 'S' : '.';
    freshness += snapshot.fresh_at_boundary ? 'F' : 's';
  }
  // Rounds 8-15 fail under the flood; everything else publishes.
  EXPECT_EQ(published,
            "SSSSSSSS........SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSS");
  // Round 7's document keeps boundaries fresh through 7, carries stale/valid
  // for two more periods, then the network is down until round 16 publishes.
  EXPECT_EQ(freshness,
            "FFFFFFFFssssssssFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF");

  // One rejoin: authority 7 comes back 3 published rounds behind (rounds 2-4
  // ran without it) and catches up over the composed diff chain.
  ASSERT_EQ(result.rejoins.size(), 1u);
  EXPECT_EQ(result.rejoins[0].node, 7u);
  EXPECT_EQ(result.rejoins[0].round, 5u);
  EXPECT_EQ(result.rejoins[0].rounds_behind, 3u);
  EXPECT_TRUE(result.rejoins[0].via_diff_chain);
  EXPECT_EQ(result.rejoin_bytes, result.rejoins[0].bytes);

  // Recovery dynamics: the calendar clears at the end of round 15; clients
  // are fresh again once round 16's consensus lands (~10 min later, the
  // vote_lead publish cadence).
  EXPECT_DOUBLE_EQ(result.last_fault_cleared_seconds, 16.0 * 3600.0);
  EXPECT_GT(result.time_to_fresh_seconds, 0.0);
  EXPECT_LT(result.time_to_fresh_seconds, 1200.0);
  // The 8 failed rounds leave the network hard-down long enough to build a
  // bootstrap retry herd above a quarter of the population.
  EXPECT_GT(result.peak_retry_backlog, 0.25 * 500000.0);
  EXPECT_GT(result.client_availability.hard_down_seconds, 3600.0);

  // Horizon alerts: the flood's silent drops and the oversized herd. The
  // recovery itself is prompt (fresh one round after the calendar cleared),
  // so no slow-recovery alert.
  bool dropped = false;
  bool herd = false;
  bool slow = false;
  for (const tordir::HealthAlert& alert : result.health_alerts) {
    dropped |= alert.kind == tordir::HealthAlertKind::kDroppedMessages;
    herd |= alert.kind == tordir::HealthAlertKind::kHerdOverload;
    slow |= alert.kind == tordir::HealthAlertKind::kSlowRecovery;
  }
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(herd);
  EXPECT_FALSE(slow);

  // Diff serving priced in: steady refetchers moving diffs cut bytes per
  // client-hour below the full-document counterfactual.
  EXPECT_LT(result.client_availability.bytes_per_client_hour,
            result.client_availability.full_doc_bytes_per_client_hour);

  // The trace above was produced with the result memo on (the default): the
  // long quiet tail collapses to one simulation — 36 quiet rounds, the 8
  // identical attacked rounds, and the crash span's repeated middle rounds
  // all dedupe, leaving ≤ 5 distinct simulations for 48 rounds.
  EXPECT_LE(runner.result_memo_misses(), 5u);
  EXPECT_GE(runner.result_memo_hits(), 43u);

  // The memo must be invisible in the artifact: recomputing every round from
  // scratch (memo off) yields the bit-identical golden trace at any thread
  // count.
  for (const unsigned threads : {1u, 2u, 8u}) {
    ScenarioRunner unmemoized;
    unmemoized.set_memoize(false);
    const TimelineResult recomputed =
        unmemoized.RunTimeline(timeline, SweepOptions{threads});
    EXPECT_EQ(unmemoized.result_memo_hits() + unmemoized.result_memo_misses(), 0u);
    EXPECT_TRUE(BitIdentical(result, recomputed)) << threads << " threads, memo off";
  }
}

// Runs an hourly `current` timeline with a client population whose calendar
// knocks out exactly the rounds marked 'x' in `pattern` ('+' = publishes).
TimelineResult RunRoundPattern(const std::string& pattern) {
  TimelineSpec timeline = SmallTimeline();
  timeline.rounds = static_cast<uint32_t>(pattern.size());
  timeline.base.client_load.client_count = 100000;
  for (uint32_t r = 0; r < pattern.size(); ++r) {
    if (pattern[r] == 'x') {
      timeline.attacks.push_back(AttackCalendarEntry{r, r, KnockOut(Hours(1))});
    }
  }
  ScenarioRunner runner;
  return runner.RunTimeline(timeline);
}

std::string PublishedPattern(const TimelineResult& result) {
  std::string published;
  for (const ScenarioResult& round : result.rounds) {
    published += round.succeeded ? '+' : 'x';
  }
  return published;
}

// The paper's §2 validity arithmetic on the client plane: a consensus is
// valid for three hourly periods, so three failed runs in a row leave clients
// with no valid document.
TEST(TimelineClientPlaneTest, ThreeFailedRunsTakeTheNetworkDown) {
  const TimelineResult result = RunRoundPattern("+xxxxx++");
  ASSERT_EQ(PublishedPattern(result), "+xxxxx++");
  const ClientAvailabilityResult& clients = result.client_availability;
  ASSERT_TRUE(clients.enabled);

  // Round 0's document carries clients for three hours past the 10-minute
  // vote lead; then nothing is valid until round 6's document is published
  // and mirrored (10 s later).
  EXPECT_DOUBLE_EQ(clients.hard_down_start_seconds, 3 * 3600.0 + 600.0);
  const double restored = 6 * 3600.0 + result.rounds[6].consensus_published_seconds + 10.0;
  EXPECT_DOUBLE_EQ(clients.hard_down_start_seconds + clients.hard_down_seconds, restored);
  EXPECT_NEAR(clients.hard_down_seconds, 10510.0, 1.0);
  EXPECT_GT(clients.peak_backlog_fetches, 0.0);

  // Per boundary: fresh after round 0, never fresh again until round 6.
  std::string freshness;
  for (const RoundSnapshot& snapshot : result.snapshots) {
    freshness += snapshot.fresh_at_boundary ? 'F' : 's';
  }
  EXPECT_EQ(freshness, "FsssssFF");
}

TEST(TimelineClientPlaneTest, SingleFailureIsAbsorbedByValidityWindow) {
  // Gaps of one and two failed runs stay inside the validity window: clients
  // are served stale documents for a while, but never none.
  const TimelineResult result = RunRoundPattern("+x+xx+");
  ASSERT_EQ(PublishedPattern(result), "+x+xx+");
  const ClientAvailabilityResult& clients = result.client_availability;
  ASSERT_TRUE(clients.enabled);
  EXPECT_EQ(clients.hard_down_seconds, 0.0);
  EXPECT_TRUE(std::isnan(clients.hard_down_start_seconds));
  EXPECT_GT(clients.outage_seconds, 0.0);
  EXPECT_EQ(clients.peak_backlog_fetches, 0.0);
}

// A churn blip for a node the network does not have would index past the
// harness's NICs; the calendar is refused before any round is derived, as a
// crash entry for such a node is.
TEST(TimelineSpecDeathTest, ChurnEntryNamingANonAuthorityNodeIsRejected) {
  TimelineSpec timeline = SmallTimeline();
  timeline.churn.push_back(
      ChurnCalendarEntry{1, ChurnEvent{12, Minutes(3), ChurnEvent::Kind::kCrash}});
  EXPECT_DEATH(BuildTimelineRoundSpecs(timeline), "churn entry names a non-authority node");
}

// Every calendar offset is an offset into its own round. A recovery two hours
// into a one-hour round would leave the node down for the whole round while
// the round's snapshot lists no crashed authority, and the rejoin would be
// charged to the wrong round; the calendar is refused instead.
TEST(TimelineSpecDeathTest, RecoverOffsetPastTheRoundIsRejected) {
  TimelineSpec timeline = SmallTimeline();
  timeline.rounds = 5;
  timeline.crashes.push_back(CrashCalendarEntry{1, 1, 0, 2, Hours(2)});
  EXPECT_DEATH(BuildTimelineRoundSpecs(timeline), "recover offset outside the round");
}

// A churn crash 90 minutes into a 60-minute round never happens inside the
// round's simulation, yet the round's snapshot would list the node as crashed.
TEST(TimelineSpecDeathTest, ChurnOffsetPastTheRoundIsRejected) {
  TimelineSpec timeline = SmallTimeline();
  timeline.churn.push_back(
      ChurnCalendarEntry{1, ChurnEvent{2, Minutes(90), ChurnEvent::Kind::kCrash}});
  EXPECT_DEATH(BuildTimelineRoundSpecs(timeline), "churn offset outside the round");
}

TEST(TimelineSnapshotTest, SnapshotRestoreRoundTripsPerProtocol) {
  // The round-boundary seam, per registered protocol: snapshot an authority
  // that assembled a consensus, hand the state to a fresh authority as its
  // restore materials, snapshot again — the document must survive the
  // round-trip byte-identically (with the restored marker set).
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = 200;
  pop_config.seed = 1;
  const auto population = tordir::GeneratePopulation(pop_config);
  const auto votes = tordir::MakeAllVotes(9, population, pop_config);

  for (const std::string& name : torproto::RegisteredProtocolNames()) {
    const torproto::DirectoryProtocol& protocol = torproto::GetProtocol(name);
    ScenarioSpec spec;
    spec.name = "snapshot";
    spec.protocol = name;
    spec.relay_count = 200;
    spec.seed = 1;

    std::vector<torproto::AuthorityRoundState> snapshots;
    ScenarioRunner runner;
    const ScenarioResult result = runner.Run(
        spec, [&protocol, &snapshots](torsim::Harness&,
                                      const std::vector<torsim::Actor*>& actors) {
          for (const torsim::Actor* actor : actors) {
            snapshots.push_back(protocol.SnapshotAuthority(*actor));
          }
        });
    ASSERT_TRUE(result.succeeded) << name;
    ASSERT_EQ(snapshots.size(), 9u) << name;
    for (const torproto::AuthorityRoundState& state : snapshots) {
      ASSERT_NE(state.consensus, nullptr) << name;
      ASSERT_NE(state.consensus_text, nullptr) << name;
      EXPECT_FALSE(state.restored) << name;
      // The text is the canonical serialization of the snapshotted document.
      EXPECT_EQ(*state.consensus_text, tordir::SerializeConsensus(*state.consensus)) << name;
    }

    // Restore: a fresh authority that never ran, constructed with round 0's
    // snapshot as its carry-in state.
    torcrypto::KeyDirectory directory(42, 9);
    torproto::ProtocolRunConfig run_config;
    torproto::AuthorityMaterials materials;
    materials.vote = std::make_shared<const tordir::VoteDocument>(votes[0]);
    materials.round_state =
        std::make_shared<const torproto::AuthorityRoundState>(snapshots[0]);
    const std::unique_ptr<torsim::Actor> actor =
        protocol.MakeAuthority(run_config, &directory, 0, std::move(materials));
    const torproto::AuthorityRoundState restored = protocol.SnapshotAuthority(*actor);
    ASSERT_NE(restored.consensus_text, nullptr) << name;
    EXPECT_TRUE(restored.restored) << name;
    EXPECT_EQ(*restored.consensus_text, *snapshots[0].consensus_text) << name;
  }
}

}  // namespace
}  // namespace torscenario
