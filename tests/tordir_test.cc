// Unit tests for src/tordir: fingerprints, flags, version ordering, dir-spec
// serialization round-trips, the Figure-2 aggregation rules, and the synthetic
// workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <string_view>

#include "src/common/thread_pool.h"
#include "src/crypto/digest.h"
#include "src/crypto/sha256_tree.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/relay.h"
#include "src/tordir/vote.h"

namespace tordir {
namespace {

Fingerprint MakeFp(uint8_t fill) {
  Fingerprint fp;
  fp.fill(fill);
  return fp;
}

RelayStatus MakeRelay(uint8_t fp_fill, const std::string& nickname = "testrelay") {
  RelayStatus relay;
  relay.fingerprint = MakeFp(fp_fill);
  relay.nickname = nickname;
  relay.address = "10.0.0.1";
  relay.or_port = 9001;
  relay.dir_port = 9030;
  relay.published = 1735689600;
  relay.SetFlag(RelayFlag::kRunning, true);
  relay.SetFlag(RelayFlag::kValid, true);
  relay.version = "Tor 0.4.8.10";
  relay.protocols = "Cons=1-2 Link=1-5";
  relay.bandwidth = 1000;
  relay.exit_policy = "reject 1-65535";
  relay.microdesc_digest.fill(0xcd);
  return relay;
}

VoteDocument MakeVoteDoc(torbase::NodeId authority, std::vector<RelayStatus> relays) {
  VoteDocument vote;
  vote.authority = authority;
  vote.authority_nickname = "auth" + std::to_string(authority);
  vote.valid_after = 1735689600;
  vote.fresh_until = 1735693200;
  vote.valid_until = 1735700400;
  vote.relays = std::move(relays);
  vote.SortRelays();
  return vote;
}

TEST(FingerprintTest, HexRoundTrip) {
  Fingerprint fp;
  for (size_t i = 0; i < fp.size(); ++i) {
    fp[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const std::string hex = FingerprintHex(fp);
  EXPECT_EQ(hex.size(), 40u);
  auto back = FingerprintFromHex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, fp);
}

TEST(FingerprintTest, RejectsWrongLength) {
  EXPECT_FALSE(FingerprintFromHex("ABCD").has_value());
  EXPECT_FALSE(FingerprintFromHex(std::string(39, 'A')).has_value());
}

TEST(RelayFlagTest, FlagsToStringCanonicalOrder) {
  RelayStatus relay;
  relay.SetFlag(RelayFlag::kValid, true);
  relay.SetFlag(RelayFlag::kExit, true);
  relay.SetFlag(RelayFlag::kFast, true);
  EXPECT_EQ(FlagsToString(relay.flags), "Exit Fast Valid");
}

TEST(RelayFlagTest, SetAndClear) {
  RelayStatus relay;
  relay.SetFlag(RelayFlag::kGuard, true);
  EXPECT_TRUE(relay.HasFlag(RelayFlag::kGuard));
  relay.SetFlag(RelayFlag::kGuard, false);
  EXPECT_FALSE(relay.HasFlag(RelayFlag::kGuard));
  EXPECT_EQ(relay.flags, 0);
}

TEST(VersionCompareTest, NumericComponents) {
  EXPECT_LT(CompareVersions("Tor 0.4.8.9", "Tor 0.4.8.10"), 0);
  EXPECT_GT(CompareVersions("Tor 0.4.8.10", "Tor 0.4.8.9"), 0);
  EXPECT_EQ(CompareVersions("Tor 0.4.8.10", "Tor 0.4.8.10"), 0);
}

TEST(VersionCompareTest, DifferentLengths) {
  EXPECT_LT(CompareVersions("Tor 0.4.8", "Tor 0.4.8.1"), 0);
  EXPECT_LT(CompareVersions("Tor 0.4", "Tor 0.4.0"), 0);
}

TEST(VersionCompareTest, ProtocolLines) {
  // "largest protocol" tie-break uses the same comparator.
  EXPECT_LT(CompareVersions("Cons=1-2 Link=1-4", "Cons=1-2 Link=1-5"), 0);
}

TEST(DirspecTest, VoteRoundTrip) {
  auto relay_a = MakeRelay(0x11, "alpha");
  relay_a.measured = 1500;
  relay_a.SetFlag(RelayFlag::kExit, true);
  relay_a.exit_policy = "accept 80,443";
  auto relay_b = MakeRelay(0x22, "beta");
  const VoteDocument vote = MakeVoteDoc(3, {relay_a, relay_b});

  const std::string text = SerializeVote(vote);
  auto parsed = ParseVote(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, vote);
}

TEST(DirspecTest, VoteDigestStableAndSensitive) {
  const VoteDocument vote = MakeVoteDoc(0, {MakeRelay(0x11)});
  VoteDocument vote2 = vote;
  EXPECT_EQ(VoteDigest(vote), VoteDigest(vote2));
  vote2.relays[0].bandwidth += 1;
  EXPECT_NE(VoteDigest(vote), VoteDigest(vote2));
}

TEST(DirspecTest, ConsensusRoundTripWithSignatures) {
  ConsensusDocument consensus;
  consensus.valid_after = 100;
  consensus.fresh_until = 200;
  consensus.valid_until = 300;
  consensus.vote_count = 7;
  consensus.relays = {MakeRelay(0x33)};
  torcrypto::Signature sig;
  sig.signer = 4;
  for (size_t i = 0; i < sig.bytes.size(); ++i) {
    sig.bytes[i] = static_cast<uint8_t>(i);
  }
  consensus.signatures.push_back(sig);

  auto parsed = ParseConsensus(SerializeConsensus(consensus));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, consensus);
}

TEST(DirspecTest, ConsensusDigestIgnoresSignatures) {
  ConsensusDocument consensus;
  consensus.relays = {MakeRelay(0x33)};
  const auto digest_before = ConsensusDigest(consensus);
  torcrypto::Signature sig;
  sig.signer = 1;
  consensus.signatures.push_back(sig);
  EXPECT_EQ(ConsensusDigest(consensus), digest_before);
}

// --- tree digests ----------------------------------------------------------
// Multi-megabyte documents (8k relays ≈ 3 MB ≈ 50 tree leaves) so the tree
// paths — streaming sink, materialize-then-parallel, pool fan-out — all cross
// many leaf boundaries.
VoteDocument BigGeneratedVote() {
  PopulationConfig config;
  config.relay_count = 8000;
  config.seed = 5;
  return MakeVote(0, 9, GeneratePopulation(config), config);
}

TEST(DirspecTest, TreeVoteDigestMatchesTreeOverSerializedBytes) {
  const VoteDocument vote = BigGeneratedVote();
  // The streaming tree sink (pool == nullptr) must equal the tree over the
  // materialized canonical bytes: one definition, two evaluation strategies.
  EXPECT_EQ(TreeVoteDigest(vote),
            torcrypto::Digest256(torcrypto::Sha256TreeDigest(SerializeVote(vote))));
}

TEST(DirspecTest, TreeVoteDigestBitIdenticalAcrossThreadCounts) {
  const VoteDocument vote = BigGeneratedVote();
  const auto serial = TreeVoteDigest(vote);
  for (const unsigned threads : {1u, 2u, 8u}) {
    torbase::ThreadPool pool(threads);
    EXPECT_EQ(TreeVoteDigest(vote, &pool), serial) << threads << " threads";
  }
}

TEST(DirspecTest, TreeVoteDigestIsDistinctDomainAndSensitive) {
  VoteDocument vote = MakeVoteDoc(0, {MakeRelay(0x11)});
  // Not interchangeable with the protocol-visible streaming digest.
  EXPECT_NE(TreeVoteDigest(vote), VoteDigest(vote));
  const auto before = TreeVoteDigest(vote);
  vote.relays[0].bandwidth += 1;
  EXPECT_NE(TreeVoteDigest(vote), before);
}

TEST(DirspecTest, TreeSignedConsensusDigestCoversSignaturesAndParallelizes) {
  PopulationConfig config;
  config.relay_count = 2000;
  config.seed = 7;
  const auto population = GeneratePopulation(config);
  ConsensusDocument consensus = ComputeConsensus(MakeAllVotes(5, population, config));
  const auto unsigned_digest = TreeSignedConsensusDigest(consensus);
  EXPECT_EQ(unsigned_digest,
            torcrypto::Digest256(torcrypto::Sha256TreeDigest(SerializeConsensus(consensus))));

  // The digest covers the signature lines: signing changes it.
  torcrypto::Signature sig;
  sig.signer = 1;
  consensus.signatures.push_back(sig);
  const auto signed_digest = TreeSignedConsensusDigest(consensus);
  EXPECT_NE(signed_digest, unsigned_digest);
  EXPECT_EQ(signed_digest,
            torcrypto::Digest256(torcrypto::Sha256TreeDigest(SerializeConsensus(consensus))));

  // Fanning the leaves out over a pool gives the streaming result.
  torbase::ThreadPool pool(4);
  EXPECT_EQ(TreeSignedConsensusDigest(consensus, &pool), signed_digest);
}

TEST(DirspecTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseVote("not a vote").ok());
  EXPECT_FALSE(ParseConsensus("network-status-version 2\n").ok());
}

TEST(DirspecTest, ParseRejectsMissingFooter) {
  VoteDocument vote = MakeVoteDoc(0, {MakeRelay(0x11)});
  std::string text = SerializeVote(vote);
  text.resize(text.size() - std::string("directory-footer\n").size());
  EXPECT_FALSE(ParseVote(text).ok());
}

TEST(DirspecTest, ParseRejectsBadFingerprint) {
  std::string text =
      "network-status-version 3 vote\n"
      "authority auth0 0\n"
      "r nick NOTHEX deadbeefdeadbeef 1.2.3.4 9001 0 100\n"
      "directory-footer\n";
  EXPECT_FALSE(ParseVote(text).ok());
}

TEST(DirspecTest, ParseRejectsUnknownFlag) {
  VoteDocument vote = MakeVoteDoc(0, {MakeRelay(0x11)});
  std::string text = SerializeVote(vote);
  const size_t pos = text.find("s Running");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "s Bananas");
  EXPECT_FALSE(ParseVote(text).ok());
}

TEST(DirspecTest, SizeScalesWithRelayCount) {
  PopulationConfig config;
  config.relay_count = 500;
  const auto population = GeneratePopulation(config);
  const auto vote = MakeVote(0, 9, population, config);
  const size_t size = SerializeVote(vote).size();
  const size_t estimate = EstimateVoteSizeBytes(vote.relays.size());
  // Within 15% of the analytic estimate used by benches.
  EXPECT_GT(size, estimate * 85 / 100);
  EXPECT_LT(size, estimate * 115 / 100);
}

TEST(DirspecTest, EstimateTracksActualSizeAcrossTheRelayAxis) {
  // EstimateVoteSizeBytes sizes serialization buffers (StringCursorSink) and
  // the benches' analytic checks; if the wire format drifts, this pins the
  // estimate to within +-20% of reality at three axis points — for both a
  // measuring (Measured= present) and a non-measuring authority's vote.
  for (const size_t relay_count : {size_t{100}, size_t{1000}, size_t{8000}}) {
    PopulationConfig config;
    config.relay_count = relay_count;
    config.seed = 3;
    const auto population = GeneratePopulation(config);
    for (const torbase::NodeId authority : {torbase::NodeId{0}, torbase::NodeId{8}}) {
      const auto vote = MakeVote(authority, 9, population, config);
      const size_t size = SerializeVote(vote).size();
      const size_t estimate = EstimateVoteSizeBytes(vote.relays.size());
      EXPECT_GT(size, estimate * 80 / 100)
          << relay_count << " relays, authority " << authority;
      EXPECT_LT(size, estimate * 120 / 100)
          << relay_count << " relays, authority " << authority;
    }
  }
}

// --- Figure 2 aggregation rules --------------------------------------------

TEST(VoteCacheTest, FindTextHitsOnlyTheExactBytes) {
  PopulationConfig config;
  config.relay_count = 60;
  config.seed = 3;
  const auto population = GeneratePopulation(config);
  VoteCache cache;
  std::vector<std::shared_ptr<const VoteDocument>> documents;
  for (VoteDocument& vote : MakeAllVotes(9, population, config)) {
    auto document = std::make_shared<const VoteDocument>(std::move(vote));
    auto text = std::make_shared<const std::string>(SerializeVote(*document));
    cache.Add(torcrypto::Digest256::Of(*text), CachedVote{document, text});
    documents.push_back(std::move(document));
  }
  cache.Seal();

  for (const auto& document : documents) {
    // A separate copy of the entry's text, so a hit is a real byte comparison.
    const std::string text = SerializeVote(*document);
    const VoteCache::Entry* hit = cache.FindText(text);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->second.document, document);
    EXPECT_NE(hit->second.text->data(), text.data());
    EXPECT_EQ(hit->first, torcrypto::Digest256::Of(text));
    EXPECT_EQ(cache.FindText(*hit->second.text), hit);

    for (size_t pos : {size_t{0}, text.size() / 2, text.size() - 1}) {
      std::string changed = text;
      changed[pos] ^= 0x01;
      EXPECT_EQ(cache.FindText(changed), nullptr) << "byte " << pos << " changed";
    }
    EXPECT_EQ(cache.FindText(std::string_view(text).substr(0, text.size() - 1)), nullptr);
    EXPECT_EQ(cache.FindText(text + "\n"), nullptr);
  }
  EXPECT_EQ(cache.FindText(""), nullptr);
}

TEST(AggregateTest, MajorityInclusionThreshold) {
  // 5 votes; relay 0x11 listed by 3 (majority), relay 0x22 by 2 (excluded).
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 5; ++a) {
    std::vector<RelayStatus> relays;
    if (a < 3) {
      relays.push_back(MakeRelay(0x11));
    }
    if (a >= 3) {
      relays.push_back(MakeRelay(0x22));
    }
    votes.push_back(MakeVoteDoc(a, std::move(relays)));
  }
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].fingerprint, MakeFp(0x11));
  EXPECT_EQ(consensus.vote_count, 5u);
}

TEST(AggregateTest, ExactMajorityBoundary) {
  // With 4 votes the threshold is 3 (floor(4/2)+1).
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 4; ++a) {
    std::vector<RelayStatus> relays;
    if (a < 2) {
      relays.push_back(MakeRelay(0x11));  // exactly half: excluded
    }
    if (a < 3) {
      relays.push_back(MakeRelay(0x22));  // majority: included
    }
    votes.push_back(MakeVoteDoc(a, std::move(relays)));
  }
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].fingerprint, MakeFp(0x22));
}

TEST(AggregateTest, NicknameFromLargestAuthorityId) {
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 3; ++a) {
    auto relay = MakeRelay(0x11, "name-from-" + std::to_string(a));
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].nickname, "name-from-2");
}

TEST(AggregateTest, FlagTieMeansUnset) {
  // 4 listing votes, 2 set Guard, 2 do not: tie -> unset.
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 4; ++a) {
    auto relay = MakeRelay(0x11);
    relay.SetFlag(RelayFlag::kGuard, a < 2);
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_FALSE(consensus.relays[0].HasFlag(RelayFlag::kGuard));
  // Running was set by all: stays set.
  EXPECT_TRUE(consensus.relays[0].HasFlag(RelayFlag::kRunning));
}

TEST(AggregateTest, FlagStrictMajoritySets) {
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 5; ++a) {
    auto relay = MakeRelay(0x11);
    relay.SetFlag(RelayFlag::kStable, a < 3);
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  const auto consensus = ComputeConsensus(votes);
  EXPECT_TRUE(consensus.relays[0].HasFlag(RelayFlag::kStable));
}

TEST(AggregateTest, FlagMajorityCountsOnlyListingVotes) {
  // 5 votes total, but only 3 list the relay; 2 of those 3 set Exit.
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 5; ++a) {
    std::vector<RelayStatus> relays;
    if (a < 3) {
      auto relay = MakeRelay(0x11);
      relay.SetFlag(RelayFlag::kExit, a < 2);
      relays.push_back(relay);
    }
    votes.push_back(MakeVoteDoc(a, std::move(relays)));
  }
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  // 2 of 3 listing votes set Exit: strict majority among listings.
  EXPECT_TRUE(consensus.relays[0].HasFlag(RelayFlag::kExit));
}

TEST(AggregateTest, VersionPopularVote) {
  std::vector<VoteDocument> votes;
  const char* versions[] = {"Tor 0.4.8.9", "Tor 0.4.8.9", "Tor 0.4.8.12"};
  for (torbase::NodeId a = 0; a < 3; ++a) {
    auto relay = MakeRelay(0x11);
    relay.version = versions[a];
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  const auto consensus = ComputeConsensus(votes);
  EXPECT_EQ(consensus.relays[0].version, "Tor 0.4.8.9");
}

TEST(AggregateTest, VersionTieSelectsLargest) {
  std::vector<VoteDocument> votes;
  const char* versions[] = {"Tor 0.4.8.9", "Tor 0.4.8.12", "Tor 0.4.8.12", "Tor 0.4.8.9"};
  for (torbase::NodeId a = 0; a < 4; ++a) {
    auto relay = MakeRelay(0x11);
    relay.version = versions[a];
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  const auto consensus = ComputeConsensus(votes);
  EXPECT_EQ(consensus.relays[0].version, "Tor 0.4.8.12");
}

TEST(AggregateTest, VersionTieUsesNumericNotLexicographicOrder) {
  // Lexicographically "0.4.8.9" > "0.4.8.12", but numerically 12 > 9.
  std::vector<VoteDocument> votes;
  const char* versions[] = {"Tor 0.4.8.9", "Tor 0.4.8.12"};
  for (torbase::NodeId a = 0; a < 2; ++a) {
    auto relay = MakeRelay(0x11);
    relay.version = versions[a];
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  EXPECT_EQ(ComputeConsensus(votes).relays[0].version, "Tor 0.4.8.12");
}

TEST(AggregateTest, ExitPolicyTieLexicographicallyLarger) {
  std::vector<VoteDocument> votes;
  const char* policies[] = {"accept 443", "accept 80"};
  for (torbase::NodeId a = 0; a < 2; ++a) {
    auto relay = MakeRelay(0x11);
    relay.exit_policy = policies[a];
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  // "accept 80" > "accept 443" lexicographically ('8' > '4').
  EXPECT_EQ(ComputeConsensus(votes).relays[0].exit_policy, "accept 80");
}

TEST(AggregateTest, BandwidthMedianOfMeasured) {
  std::vector<VoteDocument> votes;
  const uint64_t measured[] = {100, 900, 300, 500, 700};
  for (torbase::NodeId a = 0; a < 5; ++a) {
    auto relay = MakeRelay(0x11);
    relay.bandwidth = 9999;  // claimed values should be ignored
    relay.measured = measured[a];
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  EXPECT_EQ(ComputeConsensus(votes).relays[0].bandwidth, 500u);
}

TEST(AggregateTest, BandwidthMedianIgnoresNonMeasuringVotes) {
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 5; ++a) {
    auto relay = MakeRelay(0x11);
    relay.bandwidth = 10;
    if (a < 2) {
      relay.measured = 1000 + a;  // only two measurements: low median = 1000
    }
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  EXPECT_EQ(ComputeConsensus(votes).relays[0].bandwidth, 1000u);
}

TEST(AggregateTest, BandwidthFallsBackToClaimedMedian) {
  std::vector<VoteDocument> votes;
  const uint64_t claimed[] = {10, 30, 20};
  for (torbase::NodeId a = 0; a < 3; ++a) {
    auto relay = MakeRelay(0x11);
    relay.bandwidth = claimed[a];
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  EXPECT_EQ(ComputeConsensus(votes).relays[0].bandwidth, 20u);
}

TEST(AggregateTest, ConsensusNeverCarriesMeasuredField) {
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 3; ++a) {
    auto relay = MakeRelay(0x11);
    relay.measured = 123;
    votes.push_back(MakeVoteDoc(a, {relay}));
  }
  EXPECT_FALSE(ComputeConsensus(votes).relays[0].measured.has_value());
}

TEST(AggregateTest, ScheduleMetadataIsMedian) {
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 3; ++a) {
    auto vote = MakeVoteDoc(a, {MakeRelay(0x11)});
    vote.valid_after = 100 + a * 10;  // 100, 110, 120 -> median 110
    votes.push_back(vote);
  }
  EXPECT_EQ(ComputeConsensus(votes).valid_after, 110u);
}

TEST(AggregateTest, OrderIndependent) {
  PopulationConfig config;
  config.relay_count = 200;
  config.seed = 77;
  const auto population = GeneratePopulation(config);
  auto votes = MakeAllVotes(9, population, config);

  const auto baseline = ComputeConsensus(votes);
  std::mt19937 shuffle_rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(votes.begin(), votes.end(), shuffle_rng);
    EXPECT_EQ(ComputeConsensus(votes), baseline);
  }
}

TEST(AggregateTest, DeterministicAcrossRuns) {
  PopulationConfig config;
  config.relay_count = 100;
  const auto population = GeneratePopulation(config);
  const auto votes = MakeAllVotes(9, population, config);
  EXPECT_EQ(ConsensusDigest(ComputeConsensus(votes)), ConsensusDigest(ComputeConsensus(votes)));
}

TEST(AggregateTest, OutputSortedByFingerprint) {
  PopulationConfig config;
  config.relay_count = 300;
  const auto population = GeneratePopulation(config);
  const auto votes = MakeAllVotes(5, population, config);
  const auto consensus = ComputeConsensus(votes);
  EXPECT_TRUE(std::is_sorted(consensus.relays.begin(), consensus.relays.end(), RelayOrder));
}

TEST(AggregateTest, EmptyVoteSetYieldsEmptyConsensus) {
  const auto consensus = ComputeConsensus(std::vector<VoteDocument>{});
  EXPECT_TRUE(consensus.relays.empty());
  EXPECT_EQ(consensus.vote_count, 0u);
}

TEST(AggregateTest, MinorityVotesCannotInjectRelay) {
  // 9 votes, 4 "faulty" authorities list a bogus relay: excluded by majority.
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < 9; ++a) {
    std::vector<RelayStatus> relays = {MakeRelay(0x11)};
    if (a >= 5) {
      relays.push_back(MakeRelay(0x66, "injected"));
    }
    votes.push_back(MakeVoteDoc(a, std::move(relays)));
  }
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].fingerprint, MakeFp(0x11));
}

// --- generator ---------------------------------------------------------------

TEST(GeneratorTest, PopulationDeterministicAndSized) {
  PopulationConfig config;
  config.relay_count = 150;
  config.seed = 9;
  const auto a = GeneratePopulation(config);
  const auto b = GeneratePopulation(config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 150u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), RelayOrder));
}

TEST(GeneratorTest, DistinctSeedsDistinctPopulations) {
  PopulationConfig a_config;
  a_config.relay_count = 50;
  a_config.seed = 1;
  PopulationConfig b_config = a_config;
  b_config.seed = 2;
  EXPECT_NE(GeneratePopulation(a_config), GeneratePopulation(b_config));
}

TEST(GeneratorTest, AllRelaysRunningAndValid) {
  PopulationConfig config;
  config.relay_count = 100;
  for (const auto& relay : GeneratePopulation(config)) {
    EXPECT_TRUE(relay.HasFlag(RelayFlag::kRunning));
    EXPECT_TRUE(relay.HasFlag(RelayFlag::kValid));
    EXPECT_GE(relay.bandwidth, 20u);
    EXPECT_LE(relay.bandwidth, 400000u);
    EXPECT_FALSE(relay.nickname.empty());
  }
}

TEST(GeneratorTest, ExitPolicyMatchesExitFlag) {
  PopulationConfig config;
  config.relay_count = 400;
  for (const auto& relay : GeneratePopulation(config)) {
    if (!relay.HasFlag(RelayFlag::kExit)) {
      EXPECT_EQ(relay.exit_policy, "reject 1-65535");
    } else {
      EXPECT_EQ(relay.exit_policy.view().rfind("accept ", 0), 0u);
    }
  }
}

TEST(GeneratorTest, VotesDropSomeRelaysAndStaySorted) {
  PopulationConfig config;
  config.relay_count = 1000;
  const auto population = GeneratePopulation(config);
  const auto vote = MakeVote(2, 9, population, config);
  EXPECT_LT(vote.relays.size(), population.size());
  EXPECT_GT(vote.relays.size(), population.size() * 90 / 100);
  EXPECT_TRUE(std::is_sorted(vote.relays.begin(), vote.relays.end(), RelayOrder));
}

TEST(GeneratorTest, OnlyMeasuringAuthoritiesReportMeasured) {
  PopulationConfig config;
  config.relay_count = 50;
  const auto population = GeneratePopulation(config);
  VoteViewConfig view;
  view.measuring_fraction = 0.5;  // with n=9: authorities 0..4 measure
  const auto vote_measuring = MakeVote(0, 9, population, config, view);
  const auto vote_plain = MakeVote(8, 9, population, config, view);
  EXPECT_TRUE(vote_measuring.relays[0].measured.has_value());
  EXPECT_FALSE(vote_plain.relays[0].measured.has_value());
}

TEST(GeneratorTest, VotesDifferAcrossAuthorities) {
  PopulationConfig config;
  config.relay_count = 300;
  const auto population = GeneratePopulation(config);
  const auto votes = MakeAllVotes(9, population, config);
  EXPECT_NE(VoteDigest(votes[0]), VoteDigest(votes[1]));
}

TEST(GeneratorTest, AggregatedConsensusCoversMostOfPopulation) {
  PopulationConfig config;
  config.relay_count = 500;
  const auto population = GeneratePopulation(config);
  const auto votes = MakeAllVotes(9, population, config);
  const auto consensus = ComputeConsensus(votes);
  // With 2% per-authority drop probability, virtually every relay appears in a
  // majority of votes.
  EXPECT_GT(consensus.relays.size(), 490u);
  EXPECT_LE(consensus.relays.size(), 500u);
}

TEST(GeneratorTest, RelayCountSeriesMatchesPaperAverage) {
  const auto series = RelayCountSeries();
  ASSERT_EQ(series.size(), 26u);
  EXPECT_EQ(series.front().month, "2022-09");
  EXPECT_EQ(series.back().month, "2024-10");
  double mean = 0.0;
  for (const auto& point : series) {
    mean += point.relay_count;
    EXPECT_GT(point.relay_count, 5000.0);
    EXPECT_LT(point.relay_count, 9000.0);
  }
  mean /= static_cast<double>(series.size());
  EXPECT_NEAR(mean, kPaperAverageRelayCount, 0.01);
}

}  // namespace
}  // namespace tordir
