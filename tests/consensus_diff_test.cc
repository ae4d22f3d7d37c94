// Property and fuzz tests for the consensus diff codec
// (src/tordir/consensus_diff.h). The codec's contract has two halves:
//
//   * completeness — for any pair of documents, Apply(Compute(a, b), a) is
//     byte-identical to Serialize(b). Exercised here for every single-relay
//     mutation (bandwidth change, flag flip, removal, insertion) and for
//     bulk synthetic churn at live-network rates;
//   * soundness — a corrupted diff (or a diff applied to the wrong base) is
//     always refused, never applied silently wrong. Exercised with the same
//     seeded wire mutator the codec fuzz suite uses: every accepted mutant
//     must still produce the exact target bytes.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/wire_mutator.h"

namespace tordir {
namespace {

constexpr uint64_t kDiffMutants = 600;
constexpr uint64_t kBaseMutants = 300;

// A signed consensus over a generated population: the full document shape the
// codec serves, including the signature tail the diff carries verbatim.
ConsensusDocument BuildConsensus(size_t relay_count, uint64_t seed) {
  PopulationConfig config;
  config.relay_count = relay_count;
  config.seed = seed;
  const auto population = GeneratePopulation(config);
  const auto votes = MakeAllVotes(9, population, config);
  ConsensusDocument consensus = ComputeConsensus(votes);
  for (uint32_t a = 0; a < 9; ++a) {
    torcrypto::Signature sig;
    sig.signer = a;
    for (size_t i = 0; i < sig.bytes.size(); ++i) {
      sig.bytes[i] = static_cast<uint8_t>(seed + a * 64 + i);
    }
    consensus.signatures.push_back(sig);
  }
  return consensus;
}

// The round-trip property, asserted at byte granularity.
void ExpectRoundTrip(const ConsensusDocument& base, const ConsensusDocument& target,
                     const std::string& label) {
  const std::string diff = ComputeConsensusDiff(base, target);
  const auto patched = ApplyConsensusDiff(SerializeConsensus(base), diff);
  ASSERT_TRUE(patched.ok()) << label << ": " << patched.status().ToString();
  EXPECT_EQ(*patched, SerializeConsensus(target)) << label;
}

TEST(ConsensusDiffTest, IdentityDiffIsHeaderAndSignaturesOnly) {
  const ConsensusDocument doc = BuildConsensus(40, 7);
  const std::string diff = ComputeConsensusDiff(doc, doc);
  // No ops: framing, four header fields, footer, nine signature lines.
  EXPECT_EQ(diff.find(" A "), std::string::npos);
  EXPECT_LT(diff.size(), 2200u);
  ExpectRoundTrip(doc, doc, "identity");
}

TEST(ConsensusDiffTest, EverySingleRelayMutationRoundTrips) {
  const ConsensusDocument base = BuildConsensus(40, 7);
  for (size_t i = 0; i < base.relays.size(); ++i) {
    {
      ConsensusDocument target = base;
      target.relays[i].bandwidth += 1000;
      ExpectRoundTrip(base, target, "bandwidth change, relay " + std::to_string(i));
    }
    {
      ConsensusDocument target = base;
      target.relays[i].SetFlag(RelayFlag::kStable, !target.relays[i].HasFlag(RelayFlag::kStable));
      ExpectRoundTrip(base, target, "flag flip, relay " + std::to_string(i));
    }
    {
      ConsensusDocument target = base;
      target.relays.erase(target.relays.begin() + static_cast<ptrdiff_t>(i));
      ExpectRoundTrip(base, target, "removal, relay " + std::to_string(i));
    }
    {
      // Insertion: a fresh fingerprint one nibble off relay i's, re-sorted
      // into canonical position (possibly first or last).
      ConsensusDocument target = base;
      RelayStatus fresh = base.relays[i];
      fresh.fingerprint[19] ^= 0xFF;
      fresh.nickname = "inserted" + std::to_string(i);
      target.relays.push_back(fresh);
      target.SortRelays();
      ASSERT_EQ(target.relays.size(), base.relays.size() + 1);
      ExpectRoundTrip(base, target, "insertion near relay " + std::to_string(i));
    }
  }
}

TEST(ConsensusDiffTest, SyntheticChurnRoundTripsAtEveryRate) {
  const ConsensusDocument base = BuildConsensus(400, 11);
  for (const double rate : {0.0, 0.01, 0.10}) {
    ConsensusChurnConfig churn;
    churn.change_fraction = rate;
    churn.remove_fraction = rate / 2.0;
    churn.add_fraction = rate / 2.0;
    churn.seed = 3;
    const ConsensusDocument next = ChurnConsensus(base, churn);
    // The next round's validity window advanced by one period.
    EXPECT_GT(next.valid_after, base.valid_after);
    ExpectRoundTrip(base, next, "churn rate " + std::to_string(rate));
  }
}

TEST(ConsensusDiffTest, TypicalChurnCompressesBelowFivePercent) {
  // The serving-economics claim: at the live network's ~1%/hour row churn the
  // diff is a few percent of the full document.
  const ConsensusDocument base = BuildConsensus(2000, 13);
  ConsensusChurnConfig churn;
  churn.change_fraction = 0.01;
  churn.remove_fraction = 0.005;
  churn.add_fraction = 0.005;
  const ConsensusDocument next = ChurnConsensus(base, churn);
  const std::string full = SerializeConsensus(next);
  const std::string diff = ComputeConsensusDiff(base, next);
  EXPECT_LT(static_cast<double>(diff.size()), 0.05 * static_cast<double>(full.size()))
      << diff.size() << " of " << full.size();
  ExpectRoundTrip(base, next, "typical churn");
}

TEST(ConsensusDiffTest, FramingDigestsMatchTreeSignedConsensusDigest) {
  const ConsensusDocument base = BuildConsensus(40, 7);
  ConsensusChurnConfig churn;
  churn.change_fraction = 0.05;
  const ConsensusDocument next = ChurnConsensus(base, churn);
  const std::string diff = ComputeConsensusDiff(base, next);

  const auto header = ParseConsensusDiffHeader(diff);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->base_digest, TreeSignedConsensusDigest(base));
  EXPECT_EQ(header->target_digest, TreeSignedConsensusDigest(next));

  // Precomputed digests short-circuit the derivation but change no bytes.
  ConsensusDiffOptions options;
  options.base_digest = header->base_digest;
  options.target_digest = header->target_digest;
  EXPECT_EQ(ComputeConsensusDiff(base, next, options), diff);

  // Parallel digest derivation is bit-identical too (sha256-tree-v1
  // contract), so pooled and serial callers interoperate.
  torbase::ThreadPool pool(4);
  ConsensusDiffOptions pooled;
  pooled.pool = &pool;
  EXPECT_EQ(ComputeConsensusDiff(base, next, pooled), diff);
  ApplyDiffOptions apply_pooled;
  apply_pooled.verify_base = true;
  apply_pooled.pool = &pool;
  const auto patched = ApplyConsensusDiff(SerializeConsensus(base), diff, apply_pooled);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ(*patched, SerializeConsensus(next));
}

TEST(ConsensusDiffTest, WrongBaseIsRefused) {
  const ConsensusDocument base = BuildConsensus(40, 7);
  const ConsensusDocument other = BuildConsensus(40, 8);
  ConsensusChurnConfig churn;
  churn.change_fraction = 0.05;
  const ConsensusDocument next = ChurnConsensus(base, churn);
  const std::string diff = ComputeConsensusDiff(base, next);

  // verify_base catches it up front with a precise status...
  ApplyDiffOptions strict;
  strict.verify_base = true;
  const auto checked = ApplyConsensusDiff(SerializeConsensus(other), diff, strict);
  EXPECT_FALSE(checked.ok());

  // ...and even without it, the target digest refuses the wrong output (the
  // patch may also fail structurally first; either way it never succeeds).
  const auto unchecked = ApplyConsensusDiff(SerializeConsensus(other), diff);
  EXPECT_FALSE(unchecked.ok());
}

TEST(ConsensusDiffTest, StructurallyEmptyOrTruncatedDiffsAreRefused) {
  const ConsensusDocument base = BuildConsensus(40, 7);
  const std::string base_text = SerializeConsensus(base);
  const std::string diff = ComputeConsensusDiff(base, ChurnConsensus(base, {0.05, 0.0, 0.0, 1}));

  EXPECT_FALSE(ApplyConsensusDiff(base_text, "").ok());
  EXPECT_FALSE(ApplyConsensusDiff(base_text, "network-status-diff-version 2\n").ok());
  EXPECT_FALSE(ApplyConsensusDiff("", diff).ok());
  for (const size_t cut : {diff.size() / 4, diff.size() / 2, diff.size() - 1}) {
    EXPECT_FALSE(ApplyConsensusDiff(base_text, diff.substr(0, cut)).ok()) << "cut " << cut;
  }
}

TEST(ConsensusDiffTest, SecondSpellingsOfTheFramingAreRefused) {
  // Each of these patches to the right bytes (the header values and digests
  // are unchanged), but none is what ComputeConsensusDiff writes.
  const ConsensusDocument base = BuildConsensus(40, 7);
  const std::string base_text = SerializeConsensus(base);
  const std::string diff = ComputeConsensusDiff(base, ChurnConsensus(base, {0.05, 0.0, 0.0, 1}));
  ASSERT_TRUE(ApplyConsensusDiff(base_text, diff).ok());

  const auto respell = [&diff](const std::string& prefix, const auto& edit) {
    std::string bad = diff;
    const size_t pos = bad.find(prefix);
    EXPECT_NE(pos, std::string::npos) << prefix;
    const size_t value = pos + prefix.size();
    edit(bad, value, bad.find('\n', value) - value);
    return bad;
  };
  const auto leading_zero = [](std::string& s, size_t value, size_t) { s.insert(value, "0"); };
  const auto uppercase = [](std::string& s, size_t value, size_t size) {
    for (size_t i = value; i < value + size; ++i) {
      s[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(s[i])));
    }
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"votes-counted leading zero", respell("\ntarget-votes-counted ", leading_zero)},
      {"valid-after leading zero", respell("\ntarget-valid-after ", leading_zero)},
      {"uppercase base digest", respell("\nbase sha256-tree-v1 ", uppercase)},
      {"uppercase target digest", respell("\ntarget sha256-tree-v1 ", uppercase)},
  };
  for (const auto& [label, bad] : cases) {
    ASSERT_NE(bad, diff) << label;
    const auto patched = ApplyConsensusDiff(base_text, bad);
    EXPECT_FALSE(patched.ok()) << label << " was applied";
    EXPECT_EQ(patched.status().code(), torbase::StatusCode::kInvalidArgument) << label;
  }
}

TEST(ConsensusDiffFuzzTest, MutatedDiffsAreRefusedOrByteIdentical) {
  // The soundness half under the seeded wire mutator: whatever the mutation
  // did — corrupted ops, reordered lines, damaged digests, spliced rows — an
  // accepted diff must still produce exactly the target bytes. "Accepted and
  // wrong" is the one forbidden outcome.
  const ConsensusDocument base = BuildConsensus(40, 7);
  ConsensusChurnConfig churn;
  churn.change_fraction = 0.10;
  churn.remove_fraction = 0.05;
  churn.add_fraction = 0.05;
  const ConsensusDocument next = ChurnConsensus(base, churn);
  const std::string base_text = SerializeConsensus(base);
  const std::string target_text = SerializeConsensus(next);
  const std::string diff = ComputeConsensusDiff(base, next);

  uint64_t accepted = 0;
  uint64_t refused = 0;
  for (uint64_t seed = 1; seed <= kDiffMutants; ++seed) {
    const std::string mutant = MutateWire(diff, seed);
    const auto patched = ApplyConsensusDiff(base_text, mutant);
    if (patched.ok()) {
      ++accepted;
      EXPECT_EQ(*patched, target_text) << "accepted mutant diff produced wrong bytes, seed "
                                       << seed;
    } else {
      ++refused;
    }
  }
  // Nearly every mutant must be refused; the rare accept is a mutation that
  // left the semantics intact (e.g. touched nothing the parser reads).
  EXPECT_GT(refused, kDiffMutants / 2);
}

TEST(ConsensusDiffFuzzTest, MutatedBasesNeverProduceWrongBytes) {
  // The same invariant from the other side: patching a corrupted *base* with
  // an intact diff either fails or — when the mutation was outside every
  // copied region — still reconstructs the exact target.
  const ConsensusDocument base = BuildConsensus(40, 7);
  ConsensusChurnConfig churn;
  churn.change_fraction = 0.10;
  const ConsensusDocument next = ChurnConsensus(base, churn);
  const std::string base_text = SerializeConsensus(base);
  const std::string target_text = SerializeConsensus(next);
  const std::string diff = ComputeConsensusDiff(base, next);

  for (uint64_t seed = 1; seed <= kBaseMutants; ++seed) {
    const std::string mutant = MutateWire(base_text, seed);
    const auto patched = ApplyConsensusDiff(mutant, diff);
    if (patched.ok()) {
      EXPECT_EQ(*patched, target_text) << "corrupted base slipped through, seed " << seed;
    }
  }
}

// A stream of consecutive rounds at live churn rates: documents[0] is the
// held base, documents[i+1] = ChurnConsensus(documents[i]).
std::vector<ConsensusDocument> ChurnStream(size_t rounds) {
  std::vector<ConsensusDocument> documents;
  documents.push_back(BuildConsensus(200, 17));
  ConsensusChurnConfig churn;
  churn.change_fraction = 0.02;
  churn.remove_fraction = 0.01;
  churn.add_fraction = 0.01;
  for (size_t i = 0; i < rounds; ++i) {
    churn.seed = 100 + i;
    documents.push_back(ChurnConsensus(documents.back(), churn));
  }
  return documents;
}

std::vector<std::string> StreamDiffs(const std::vector<ConsensusDocument>& documents) {
  std::vector<std::string> diffs;
  for (size_t i = 0; i + 1 < documents.size(); ++i) {
    diffs.push_back(ComputeConsensusDiff(documents[i], documents[i + 1]));
  }
  return diffs;
}

TEST(ConsensusDiffChainTest, ComposedChainIsByteIdenticalToFullDocument) {
  // Serving a client N rounds behind: composing the per-round diffs must land
  // on exactly the bytes of the newest full document, for every depth.
  const std::vector<ConsensusDocument> documents = ChurnStream(6);
  const std::vector<std::string> diffs = StreamDiffs(documents);
  const std::string base_text = SerializeConsensus(documents.front());

  for (size_t depth = 0; depth <= diffs.size(); ++depth) {
    const std::vector<std::string_view> chain(diffs.begin(),
                                              diffs.begin() + static_cast<ptrdiff_t>(depth));
    const auto patched = ApplyConsensusDiffChain(base_text, chain);
    ASSERT_TRUE(patched.ok()) << "depth " << depth << ": " << patched.status().ToString();
    EXPECT_EQ(*patched, SerializeConsensus(documents[depth])) << "depth " << depth;
  }
}

TEST(ConsensusDiffChainTest, ChainRefusesWrongAnchorGapsAndCorruptLinks) {
  const std::vector<ConsensusDocument> documents = ChurnStream(4);
  const std::vector<std::string> diffs = StreamDiffs(documents);
  const std::string base_text = SerializeConsensus(documents.front());
  const std::vector<std::string_view> chain(diffs.begin(), diffs.end());

  // Anchored to a document the chain does not start from: always refused,
  // even though per-link verify_base is off by default.
  const auto wrong_anchor =
      ApplyConsensusDiffChain(SerializeConsensus(documents[1]), chain);
  EXPECT_FALSE(wrong_anchor.ok());

  // A gap in the middle breaks the base->target digest linkage.
  std::vector<std::string_view> gapped = {diffs[0], diffs[2], diffs[3]};
  EXPECT_FALSE(ApplyConsensusDiffChain(base_text, gapped).ok());

  // Reordered links break it too.
  std::vector<std::string_view> reordered = {diffs[1], diffs[0], diffs[2], diffs[3]};
  EXPECT_FALSE(ApplyConsensusDiffChain(base_text, reordered).ok());

  // A corrupted link anywhere refuses the whole application — never a
  // silently wrong document.
  for (size_t i = 0; i < diffs.size(); ++i) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      std::vector<std::string> mutated = diffs;
      mutated[i] = MutateWire(diffs[i], seed);
      if (mutated[i] == diffs[i]) {
        continue;
      }
      const std::vector<std::string_view> views(mutated.begin(), mutated.end());
      const auto patched = ApplyConsensusDiffChain(base_text, views);
      if (patched.ok()) {
        EXPECT_EQ(*patched, SerializeConsensus(documents.back()))
            << "accepted corrupted link " << i << " seed " << seed << " produced wrong bytes";
      }
    }
  }
}

}  // namespace
}  // namespace tordir
