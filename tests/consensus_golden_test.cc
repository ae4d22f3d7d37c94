// Golden consensus-digest fixtures and large-n aggregation properties.
//
// The digests below were captured from the ORIGINAL map-based ComputeConsensus
// (pre flat-merge / string-interning refactor, commit 0d0315b) and pinned
// in-repo: the rewritten O(n·a) aggregation and the interned relay strings
// must reproduce the exact same consensus bytes for the refactor to count as
// semantics-preserving. If an intentional rule change ever touches these,
// re-derive them with the old implementation's rules in mind, not by pasting
// the new output.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/string_pool.h"

namespace tordir {
namespace {

struct GoldenCase {
  size_t relay_count;
  uint64_t seed;
  uint32_t authority_count;
  size_t consensus_relays;
  const char* digest_hex;
};

// Captured from the pre-refactor implementation; see file comment.
const GoldenCase kGoldenCases[] = {
    {200u, 77ull, 9u, 200u,
     "bd08eb439163f6509f86d8a9523e47292f7b8205a02e58d505610216d25c24b8"},
    {500u, 1ull, 5u, 500u,
     "f56ea5dc544172d73ab03fee8253e2f2283781710f585b0879bceed5301be261"},
    {1000u, 3ull, 9u, 1000u,
     "f0d44c642707bca93d8ec290f87c0fe029251bcdbbf3143db9a825bc02f36429"},
    {8000u, 5ull, 9u, 8000u,
     "c0f56d0cacfbd59bc28dc6205ba86ce0fb72d77d810084bf80985760712affc2"},
};

// Tree-digest goldens over the same fixtures ("sha256-tree-v1" shape; the
// construction itself is pinned against an independent implementation in
// tests/crypto_test.cc, these pin its application to consensus bytes through
// TreeSignedConsensusDigest, the diff codec's framing digest; the fixtures
// carry no signatures, so the signed bytes are the unsigned body). The
// streaming goldens above must stay untouched — tree digests are a separate
// domain, not a replacement.
const char* const kGoldenTreeDigests[] = {
    "1720cb82a65cb25a39edeccb1ef2fe1b431b1d14c91c8177a3d7e63f3500cd1f",
    "0c9c1df8b5ab0637822ced62d81c050b5b915ee2c7379344f4dbec313beda499",
    "532925a402b53de0af2e173195b0313a65ab7dffc68764eefa7a1abfaad2076c",
    "cd335db7c2e7427e8c18ab78eac3f7c9bca98d024cdd5b2a351ec979fa36f381",
};

ConsensusDocument GoldenConsensus(const GoldenCase& c) {
  PopulationConfig config;
  config.relay_count = c.relay_count;
  config.seed = c.seed;
  const auto population = GeneratePopulation(config);
  const auto votes = MakeAllVotes(c.authority_count, population, config);
  return ComputeConsensus(votes);
}

TEST(ConsensusGoldenTest, DigestsMatchPreRefactorImplementation) {
  for (const GoldenCase& c : kGoldenCases) {
    const ConsensusDocument consensus = GoldenConsensus(c);
    EXPECT_EQ(consensus.relays.size(), c.consensus_relays)
        << "relays=" << c.relay_count << " seed=" << c.seed;
    EXPECT_EQ(ConsensusDigest(consensus).ToHex(), c.digest_hex)
        << "relays=" << c.relay_count << " seed=" << c.seed;
  }
}

TEST(ConsensusGoldenTest, TreeDigestsMatchPinnedRoots) {
  for (size_t i = 0; i < std::size(kGoldenCases); ++i) {
    const ConsensusDocument consensus = GoldenConsensus(kGoldenCases[i]);
    EXPECT_EQ(TreeSignedConsensusDigest(consensus).ToHex(), kGoldenTreeDigests[i])
        << "relays=" << kGoldenCases[i].relay_count;
  }
}

TEST(ConsensusGoldenTest, SerializedConsensusRoundTripsAtScale) {
  const ConsensusDocument consensus = GoldenConsensus(kGoldenCases[2]);  // 1k relays
  auto parsed = ParseConsensus(SerializeConsensus(consensus));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, consensus);
}

// The k-way merge must not depend on vote order, even at a relay count where
// every scratch buffer has been through thousands of reuse cycles. 8k relays
// x 9 authorities, several shuffles, digest-exact.
TEST(ConsensusGoldenTest, OrderIndependentAt8kRelays) {
  PopulationConfig config;
  config.relay_count = 8000;
  config.seed = 5;
  const auto population = GeneratePopulation(config);
  auto votes = MakeAllVotes(9, population, config);

  const auto baseline_digest = ConsensusDigest(ComputeConsensus(votes));
  std::mt19937 shuffle_rng(11);
  for (int trial = 0; trial < 3; ++trial) {
    std::shuffle(votes.begin(), votes.end(), shuffle_rng);
    EXPECT_EQ(ConsensusDigest(ComputeConsensus(votes)), baseline_digest) << "trial " << trial;
  }
}

// The merge assumes fingerprint-sorted relay lists but must fall back to a
// sorted shadow copy (not silently mis-aggregate) when a caller hands it an
// unsorted vote.
TEST(ConsensusGoldenTest, UnsortedVotesAggregateIdentically) {
  PopulationConfig config;
  config.relay_count = 300;
  config.seed = 9;
  const auto population = GeneratePopulation(config);
  auto votes = MakeAllVotes(5, population, config);
  const auto baseline_digest = ConsensusDigest(ComputeConsensus(votes));

  std::mt19937 shuffle_rng(7);
  for (auto& vote : votes) {
    std::shuffle(vote.relays.begin(), vote.relays.end(), shuffle_rng);
  }
  EXPECT_EQ(ConsensusDigest(ComputeConsensus(votes)), baseline_digest);
}

// Tie-breaking fixtures for the popular-vote fields, exercised through the
// merge path (single relay, controlled listings).
RelayStatus TieRelay() {
  RelayStatus relay;
  relay.fingerprint.fill(0x42);
  relay.nickname = "tie";
  relay.address = "10.0.0.1";
  relay.or_port = 9001;
  relay.published = 1735689600;
  relay.SetFlag(RelayFlag::kRunning, true);
  relay.version = "Tor 0.4.8.10";
  relay.protocols = "Cons=1-2 Link=1-5";
  relay.bandwidth = 100;
  relay.exit_policy = "reject 1-65535";
  relay.microdesc_digest.fill(0xcd);
  return relay;
}

std::vector<VoteDocument> TieVotes(const std::vector<RelayStatus>& relays) {
  std::vector<VoteDocument> votes;
  for (torbase::NodeId a = 0; a < relays.size(); ++a) {
    VoteDocument vote;
    vote.authority = a;
    vote.authority_nickname = "auth" + std::to_string(a);
    vote.relays = {relays[a]};
    votes.push_back(std::move(vote));
  }
  return votes;
}

TEST(ConsensusGoldenTest, VersionCountTieBreaksTowardsLargestVersion) {
  std::vector<RelayStatus> relays(4, TieRelay());
  relays[0].version = "Tor 0.4.8.9";
  relays[1].version = "Tor 0.4.8.12";
  relays[2].version = "Tor 0.4.8.12";
  relays[3].version = "Tor 0.4.8.9";
  const auto consensus = ComputeConsensus(TieVotes(relays));
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].version, "Tor 0.4.8.12");
}

// Distinct spellings that CompareVersions considers equal ("0.08" vs "0.8")
// merge their popular-vote counts; the merged group keeps the spelling of its
// lowest-authority listing, a rule that is independent of vote order (the old
// map-based code resolved this case by insertion order instead).
TEST(ConsensusGoldenTest, ComparatorEquivalentVersionsMergeCounts) {
  std::vector<RelayStatus> relays(5, TieRelay());
  relays[0].version = "Tor 0.4.08.9";
  relays[1].version = "Tor 0.4.8.9";
  relays[2].version = "Tor 0.4.8.12";
  relays[3].version = "Tor 0.4.8.12";
  relays[4].version = "Tor 0.4.8.9";
  // Class {0.4.08.9, 0.4.8.9} has 3 listings, {0.4.8.12} has 2: the merged
  // class wins and reports authority 0's spelling.
  auto votes = TieVotes(relays);
  const auto consensus = ComputeConsensus(votes);
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].version, "Tor 0.4.08.9");
  // And the choice is stable under reordering.
  std::reverse(votes.begin(), votes.end());
  EXPECT_EQ(ComputeConsensus(votes).relays[0].version, "Tor 0.4.08.9");
}

TEST(ConsensusGoldenTest, EndpointTieBreaksTowardsLargestAuthority) {
  std::vector<RelayStatus> relays(4, TieRelay());
  relays[0].address = "10.0.0.1";
  relays[1].address = "10.0.0.1";
  relays[2].address = "10.0.0.2";
  relays[3].address = "10.0.0.2";
  // 2-2 endpoint split: the group containing the largest authority (3) wins.
  const auto consensus = ComputeConsensus(TieVotes(relays));
  ASSERT_EQ(consensus.relays.size(), 1u);
  EXPECT_EQ(consensus.relays[0].address, "10.0.0.2");
}

// A (malformed but parseable) vote that lists the same fingerprint twice can
// produce endpoint groups tied on both count and max authority; the merge
// must resolve that towards the smallest endpoint tuple regardless of row
// order, like the original tuple-keyed map did.
TEST(ConsensusGoldenTest, DuplicateFingerprintEndpointTieIsOrderIndependent) {
  RelayStatus first = TieRelay();
  first.address = "10.0.0.9";
  RelayStatus second = TieRelay();
  second.address = "10.0.0.1";

  for (const bool swapped : {false, true}) {
    VoteDocument vote;
    vote.authority = 0;
    vote.authority_nickname = "auth0";
    vote.relays = swapped ? std::vector<RelayStatus>{second, first}
                          : std::vector<RelayStatus>{first, second};
    const auto consensus = ComputeConsensus(std::vector<VoteDocument>{vote});
    ASSERT_EQ(consensus.relays.size(), 1u);
    EXPECT_EQ(consensus.relays[0].address, "10.0.0.1") << "swapped=" << swapped;
  }
}

// Consensus-diff goldens over the same fixtures: the diff of a deterministic
// churned successor is pinned by digest, and applying it reproduces the
// successor's serialization byte for byte. Any change to the diff wire format
// or to ChurnConsensus's row selection shows up here.
const char* const kGoldenDiffDigests[] = {
    "9e95539e45c124e9ee8987c3d82ed837aabbf1276c3994f3b92f52be99d4fdab",
    "96194e0b0dfec4f92b0fd6c1ba15c19611a99532ac5dd5336e7449df0bfc337d",
};

TEST(ConsensusGoldenTest, ChurnedConsensusDiffsMatchPinnedDigests) {
  for (size_t i = 0; i < std::size(kGoldenDiffDigests); ++i) {
    ConsensusDocument base = GoldenConsensus(kGoldenCases[i]);
    for (uint32_t a = 0; a < kGoldenCases[i].authority_count; ++a) {
      torcrypto::Signature sig;
      sig.signer = a;
      sig.bytes.fill(static_cast<uint8_t>(0xA0 + a));
      base.signatures.push_back(sig);
    }
    ConsensusChurnConfig churn;
    churn.change_fraction = 0.02;
    churn.remove_fraction = 0.01;
    churn.add_fraction = 0.01;
    churn.seed = kGoldenCases[i].seed;
    const ConsensusDocument next = ChurnConsensus(base, churn);

    const std::string diff = ComputeConsensusDiff(base, next);
    EXPECT_EQ(torcrypto::Digest256::Of(diff).ToHex(), kGoldenDiffDigests[i])
        << "relays=" << kGoldenCases[i].relay_count;
    const auto patched = ApplyConsensusDiff(SerializeConsensus(base), diff);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_EQ(*patched, SerializeConsensus(next))
        << "relays=" << kGoldenCases[i].relay_count;
  }
}

// Interned strings hash-cons: two independently parsed copies of the same
// document are bit-identical, including their interned ids.
TEST(ConsensusGoldenTest, ReparsedVotesAreIdentical) {
  PopulationConfig config;
  config.relay_count = 50;
  const auto population = GeneratePopulation(config);
  const auto vote = MakeVote(0, 9, population, config);
  const std::string text = SerializeVote(vote);
  auto first = ParseVote(text);
  auto second = ParseVote(text);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(*first, vote);
  EXPECT_EQ(first->relays[0].nickname.id(), second->relays[0].nickname.id());
}

}  // namespace
}  // namespace tordir
