// Seeded mutation fuzzing for the wire codec (src/tordir/dirspec.cc) and the
// admission layer (src/tordir/admission.h). Thousands of deterministic
// byte/line/word mutants of canonical vote and consensus bytes, asserting:
//
//   * ParseVote / ParseConsensus never crash on any mutant;
//   * the accept set is the canonical set: every accepted mutant x satisfies
//     Serialize(Parse(x)) == x, byte-exact;
//   * admission refuses a mutant as malformed exactly when ParseVote does, and
//     the per-mutant verdicts (admit / stale / malformed, plus the author) are
//     pinned by one digest;
//   * every structural mutant (the byzantine malformed-wire generator) is
//     refused at admission — the guarantee the fault injector relies on;
//   * the text-only admission, which finds cache hits by comparing bytes,
//     agrees field for field with the digest form on canonical, byzantine
//     and mutated texts.
//
// Everything is seed-indexed, so a failure reproduces from the seed printed
// in the assertion message.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/protocols/byzantine.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/wire_mutator.h"

namespace tordir {
namespace {

constexpr uint64_t kVoteMutants = 600;
constexpr uint64_t kStructuralMutants = 400;
constexpr uint64_t kConsensusMutants = 400;

PopulationConfig SmallConfig() {
  PopulationConfig config;
  config.relay_count = 40;
  config.seed = 7;
  return config;
}

const std::vector<std::string>& CanonicalVoteTexts() {
  static const std::vector<std::string>* texts = [] {
    const PopulationConfig config = SmallConfig();
    const auto population = GeneratePopulation(config);
    auto* result = new std::vector<std::string>();
    for (torbase::NodeId authority : {0u, 4u, 8u}) {
      result->push_back(SerializeVote(MakeVote(authority, 9, population, config)));
    }
    return result;
  }();
  return *texts;
}

const std::string& CanonicalConsensusText() {
  static const std::string* text = [] {
    const PopulationConfig config = SmallConfig();
    const auto population = GeneratePopulation(config);
    const auto votes = MakeAllVotes(9, population, config);
    std::vector<const VoteDocument*> vote_ptrs;
    for (const auto& vote : votes) {
      vote_ptrs.push_back(&vote);
    }
    return new std::string(SerializeConsensus(ComputeConsensus(vote_ptrs)));
  }();
  return *text;
}

// Calls `body(text, mutant, label)` for every vote mutant: kVoteMutants MutateWire
// and kStructuralMutants MutateWireStructural mutants of each canonical text.
template <typename Body>
void ForEachVoteMutant(Body body) {
  for (size_t t = 0; t < CanonicalVoteTexts().size(); ++t) {
    const std::string& text = CanonicalVoteTexts()[t];
    for (uint64_t seed = 1; seed <= kVoteMutants; ++seed) {
      body(text, MutateWire(text, seed),
           "text " + std::to_string(t) + " wire seed " + std::to_string(seed));
    }
    for (uint64_t seed = 1; seed <= kStructuralMutants; ++seed) {
      body(text, MutateWireStructural(text, seed),
           "text " + std::to_string(t) + " structural seed " + std::to_string(seed));
    }
  }
}

TEST(CodecFuzzTest, CanonicalTextsRoundTrip) {
  for (const std::string& text : CanonicalVoteTexts()) {
    const auto parsed = ParseVote(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(SerializeVote(*parsed), text);
  }
  const auto consensus = ParseConsensus(CanonicalConsensusText());
  ASSERT_TRUE(consensus.ok());
  EXPECT_EQ(SerializeConsensus(*consensus), CanonicalConsensusText());
}

TEST(CodecFuzzTest, EveryAcceptedVoteMutantRoundTripsExactly) {
  uint64_t accepted = 0;
  uint64_t total = 0;
  ForEachVoteMutant([&](const std::string&, const std::string& mutant, const std::string& label) {
    ++total;
    const auto parsed = ParseVote(mutant);
    if (parsed.ok()) {
      ++accepted;
      EXPECT_EQ(SerializeVote(*parsed), mutant) << "accepted a second spelling, " << label;
    } else {
      EXPECT_EQ(parsed.status().code(), torbase::StatusCode::kInvalidArgument) << label;
    }
  });
  // Some mutants (swapped words, digit tweaks, duplicated relay fields that
  // stay canonical) legitimately still parse. Both extremes would make this
  // test vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, total / 2);
}

TEST(CodecFuzzTest, EveryAcceptedConsensusMutantRoundTripsExactly) {
  const std::string& text = CanonicalConsensusText();
  uint64_t accepted = 0;
  for (uint64_t seed = 1; seed <= kConsensusMutants; ++seed) {
    const std::string mutant = MutateWire(text, seed);
    const auto parsed = ParseConsensus(mutant);
    if (parsed.ok()) {
      ++accepted;
      EXPECT_EQ(SerializeConsensus(*parsed), mutant)
          << "accepted a second spelling, consensus seed " << seed;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kConsensusMutants);
}

TEST(CodecFuzzTest, AdmissionVerdictsArePinned) {
  // One line per vote mutant: the verdict class and the attributed author.
  // Admission refuses as malformed exactly what ParseVote refuses, and admits
  // only canonical bytes. The digest was recorded with the earlier parser,
  // whose separate non-canonical reason counts as malformed here: a stricter
  // parser must not move a single verdict.
  std::string verdicts;
  ForEachVoteMutant([&](const std::string& text, const std::string& mutant,
                        const std::string& label) {
    const uint64_t period_start = ParseVote(text)->valid_after;
    const VoteAdmission admission = AdmitVote(nullptr, mutant, period_start);
    const char* verdict = "admit";
    if (!admission.status.ok()) {
      verdict = admission.reason == VoteRejectReason::kStaleWindow ? "stale" : "malformed";
    }
    EXPECT_EQ(admission.reason == VoteRejectReason::kMalformed && !admission.status.ok(),
              !ParseVote(mutant).ok())
        << label;
    if (admission.status.ok()) {
      EXPECT_EQ(SerializeVote(*admission.document), mutant) << label;
    }
    verdicts += label + ' ' + verdict + ' ' + std::to_string(admission.author) + '\n';
  });
  EXPECT_EQ(torcrypto::Digest256::Of(verdicts).ToHex(),
            "6191f70249c325da422434a0d4bd68966096b29e5aba206ed0908b996106fe87");
}

TEST(CodecFuzzTest, StructuralMutantsAreAlwaysRefusedAtAdmission) {
  // MutateWireStructural is the byzantine malformed-wire generator: its
  // guarantee is that *every* structural mutant of a canonical vote is
  // refused at admission as malformed, so an injected faulty authority is
  // always detectable.
  for (const std::string& text : CanonicalVoteTexts()) {
    const uint64_t period_start = ParseVote(text)->valid_after;
    for (uint64_t seed = 1; seed <= kStructuralMutants; ++seed) {
      const std::string mutant = MutateWireStructural(text, seed);
      ASSERT_NE(mutant, text) << "structural mutator returned the input, seed " << seed;
      const VoteAdmission admission = AdmitVote(nullptr, mutant, period_start);
      EXPECT_FALSE(admission.status.ok()) << "structural mutant admitted, seed " << seed;
      EXPECT_EQ(admission.reason, VoteRejectReason::kMalformed)
          << "structural mutant misclassified as replay, seed " << seed;
    }
  }
}

TEST(CodecFuzzTest, ReplayedVotesAreRefusedWithAStaleWindowStatus) {
  // A byte-identical vote re-sent after its validity window closed must be
  // refused as a replay (specific status), not silently admitted.
  const std::string& text = CanonicalVoteTexts()[0];
  const auto vote = ParseVote(text);
  ASSERT_TRUE(vote.ok());
  const VoteAdmission admission = AdmitVote(nullptr, text, vote->valid_until);
  ASSERT_FALSE(admission.status.ok());
  EXPECT_EQ(admission.reason, VoteRejectReason::kStaleWindow);
  EXPECT_EQ(admission.status.code(), torbase::StatusCode::kFailedPrecondition);
  EXPECT_NE(admission.status.message().find("replayed vote"), std::string::npos);
  // Attribution survives rejection: the document's own author is implicated.
  EXPECT_EQ(admission.author, vote->authority);
}

TEST(CodecFuzzTest, ContentLookupAdmitsExactlyAsTheDigestPath) {
  // The text-only AdmitVote finds a cache hit by comparing bytes and hashes
  // only on a miss. It must return, field for field, what the digest form
  // returns given Digest256::Of(text): on the canonical votes and on every
  // kind of faulty text a byzantine authority puts on the wire.
  const PopulationConfig config = SmallConfig();
  const auto population = GeneratePopulation(config);
  auto cache = std::make_shared<VoteCache>();
  std::vector<torproto::AuthorityMaterials> honest;
  for (VoteDocument& vote : MakeAllVotes(9, population, config)) {
    torproto::AuthorityMaterials materials;
    materials.vote = std::make_shared<const VoteDocument>(std::move(vote));
    materials.vote_text = std::make_shared<const std::string>(SerializeVote(*materials.vote));
    cache->Add(torcrypto::Digest256::Of(*materials.vote_text),
               CachedVote{materials.vote, materials.vote_text});
    honest.push_back(std::move(materials));
  }
  cache->Seal();

  using torproto::ByzantineBehavior;
  const torproto::ByzantineSpec spec;
  std::vector<std::string> texts;
  for (torbase::NodeId id = 0; id < honest.size(); ++id) {
    const torproto::AuthorityMaterials& materials = honest[id];
    texts.push_back(*materials.vote_text);
    texts.push_back(*torproto::MakeFaultyMaterials(materials, ByzantineBehavior::kEquivocate,
                                                   spec, id)
                         .second_vote_text);
    for (ByzantineBehavior behavior :
         {ByzantineBehavior::kReplay, ByzantineBehavior::kInflateBandwidth}) {
      texts.push_back(*torproto::MakeFaultyMaterials(materials, behavior, spec, id).vote_text);
    }
  }
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    texts.push_back(MutateWireStructural(*honest[seed % honest.size()].vote_text, seed));
  }

  const uint64_t period_start = honest[0].vote->valid_after;
  size_t hits = 0;
  size_t admitted = 0;
  size_t stale = 0;
  for (size_t i = 0; i < texts.size(); ++i) {
    const std::string& text = texts[i];
    const VoteAdmission by_bytes = AdmitVote(cache, text, period_start);
    const VoteAdmission by_digest =
        AdmitVote(cache, text, torcrypto::Digest256::Of(text), period_start);
    const std::string label = "text " + std::to_string(i);
    EXPECT_EQ(by_bytes.status.code(), by_digest.status.code()) << label;
    EXPECT_EQ(by_bytes.status.message(), by_digest.status.message()) << label;
    EXPECT_EQ(by_bytes.reason, by_digest.reason) << label;
    EXPECT_EQ(by_bytes.author, by_digest.author) << label;
    EXPECT_EQ(by_bytes.digest, by_digest.digest) << label;
    ASSERT_EQ(by_bytes.document == nullptr, by_digest.document == nullptr) << label;
    ASSERT_EQ(by_bytes.text == nullptr, by_digest.text == nullptr) << label;
    if (by_bytes.document != nullptr) {
      EXPECT_EQ(*by_bytes.document, *by_digest.document) << label;
      EXPECT_EQ(*by_bytes.text, *by_digest.text) << label;
      EXPECT_EQ(*by_bytes.text, text) << label;
      ++admitted;
      hits += cache->Find(by_bytes.digest) != nullptr;
    }
    stale += by_bytes.reason == VoteRejectReason::kStaleWindow && !by_bytes.status.ok();
  }
  // Every kind was exercised: 9 canonical hits, 18 admitted misses
  // (equivocation variants and inflated votes), 9 replays; the rest malformed.
  EXPECT_EQ(hits, honest.size());
  EXPECT_EQ(admitted, 3 * honest.size());
  EXPECT_EQ(stale, honest.size());
}

TEST(CodecFuzzDeathTest, AdmitVoteAssertsTheCallersDigestOnAMiss) {
  // The digest overload trusts its caller's digest (a cache hit is byte
  // equality only if the digest is the text's). Debug builds check that on
  // the miss path; release builds skip the extra hash.
  const std::string& text = CanonicalVoteTexts()[0];
  const torcrypto::Digest256 wrong = torcrypto::Digest256::Of(CanonicalVoteTexts()[1]);
  EXPECT_DEBUG_DEATH(AdmitVote(nullptr, text, wrong, /*period_start=*/0),
                     "AdmitVote: digest is not");
}

}  // namespace
}  // namespace tordir
