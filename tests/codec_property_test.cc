// Accept-set properties of the wire codec. The parsers accept a text exactly
// when it is the writer's own output, so these tests pin both sides of that
// line: canonical corner documents (extreme integers, empty optional fields,
// zero relays, zero and several signatures) round-trip byte-exactly, while
// truncations, bad hex, overlong word counts, missing footers, second
// spellings of a valid document (leading zeros, uppercase hex, reordered or
// blank lines, out-of-range ports) and junk after the document are refused
// with InvalidArgument.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace tordir {
namespace {

VoteDocument SmallVote(size_t relays = 5) {
  PopulationConfig config;
  config.relay_count = relays;
  config.seed = 11;
  const auto population = GeneratePopulation(config);
  return MakeVote(0, 9, population, config);
}

ConsensusDocument SmallConsensus(size_t signatures) {
  ConsensusDocument consensus;
  consensus.vote_count = 3;
  consensus.valid_after = 100;
  consensus.fresh_until = 200;
  consensus.valid_until = 300;
  consensus.relays = SmallVote().relays;
  for (RelayStatus& relay : consensus.relays) {
    relay.measured.reset();  // consensus rows never carry Measured
  }
  for (size_t i = 0; i < signatures; ++i) {
    torcrypto::Signature sig;
    sig.signer = static_cast<torbase::NodeId>(2 * i + 1);
    for (size_t b = 0; b < sig.bytes.size(); ++b) {
      sig.bytes[b] = static_cast<uint8_t>(i * 64 + b);
    }
    consensus.signatures.push_back(sig);
  }
  return consensus;
}

std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts{0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n' && i + 1 < text.size()) {
      starts.push_back(i + 1);
    }
  }
  return starts;
}

void ExpectVoteRefused(const std::string& text, const std::string& what) {
  const auto result = ParseVote(text);
  EXPECT_FALSE(result.ok()) << what << " was accepted";
  EXPECT_EQ(result.status().code(), torbase::StatusCode::kInvalidArgument) << what;
}

void ExpectConsensusRefused(const std::string& text, const std::string& what) {
  const auto result = ParseConsensus(text);
  EXPECT_FALSE(result.ok()) << what << " was accepted";
  EXPECT_EQ(result.status().code(), torbase::StatusCode::kInvalidArgument) << what;
}

void ExpectVoteRoundTrips(const VoteDocument& vote, const std::string& what) {
  const std::string text = SerializeVote(vote);
  const auto parsed = ParseVote(text);
  ASSERT_TRUE(parsed.ok()) << what << ": " << parsed.status().ToString();
  EXPECT_EQ(*parsed, vote) << what;
  EXPECT_EQ(SerializeVote(*parsed), text) << what;
}

void ExpectConsensusRoundTrips(const ConsensusDocument& consensus, const std::string& what) {
  const std::string text = SerializeConsensus(consensus);
  const auto parsed = ParseConsensus(text);
  ASSERT_TRUE(parsed.ok()) << what << ": " << parsed.status().ToString();
  EXPECT_EQ(*parsed, consensus) << what;
  EXPECT_EQ(SerializeConsensus(*parsed), text) << what;
}

// Replaces the first occurrence of `from` at or after `after` with `to`.
std::string ReplaceFirst(std::string text, const std::string& from, const std::string& to,
                         size_t after = 0) {
  const size_t pos = text.find(from, after);
  EXPECT_NE(pos, std::string::npos) << "no '" << from << "' in the document";
  if (pos != std::string::npos) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

TEST(CodecPropertyTest, TruncationAtEveryLineBoundaryFailsCleanly) {
  const std::string text = SerializeVote(SmallVote());
  // Cutting the document at any line start removes the footer or tears a
  // relay entry: every prefix must be rejected, and the full text accepted.
  for (const size_t start : LineStarts(text)) {
    ExpectVoteRefused(text.substr(0, start), "prefix of " + std::to_string(start) + " bytes");
  }
  EXPECT_TRUE(ParseVote(text).ok());
}

TEST(CodecPropertyTest, TruncationMidLineFailsCleanly) {
  const std::string text = SerializeVote(SmallVote());
  // Cuts that land inside a line produce either a torn word or a missing
  // footer; never a crash, never an accept.
  for (size_t cut = 1; cut + 1 < text.size(); cut += 97) {
    ExpectVoteRefused(text.substr(0, cut), "cut at " + std::to_string(cut));
  }
}

TEST(CodecPropertyTest, BadHexDigestsAreRejected) {
  const std::string text = SerializeVote(SmallVote());

  // Corrupt one fingerprint character ('G' is not hex).
  {
    std::string bad = text;
    const size_t r_pos = bad.find("\nr ");
    const size_t fp_pos = bad.find(' ', bad.find(' ', r_pos + 1) + 1) + 1;
    bad[fp_pos] = 'G';
    ExpectVoteRefused(bad, "non-hex fingerprint");
  }

  // Corrupt a microdesc digest character.
  {
    std::string bad = text;
    const size_t m_pos = bad.find("\nm ");
    bad[m_pos + 3] = 'x';
    ExpectVoteRefused(bad, "non-hex microdesc digest");
  }

  // Odd-length digest (drop one hex char).
  {
    std::string bad = text;
    const size_t m_pos = bad.find("\nm ");
    bad.erase(m_pos + 3, 1);
    ExpectVoteRefused(bad, "odd-length microdesc digest");
  }
}

TEST(CodecPropertyTest, OverlongWordCountsAreRejected) {
  const std::string text = SerializeVote(SmallVote());

  // A ninth word on an r line.
  {
    std::string bad = text;
    const size_t r_end = bad.find('\n', bad.find("\nr ") + 1);
    bad.insert(r_end, " extra");
    ExpectVoteRefused(bad, "ninth r-line word");
  }

  // A fourth word on the authority line.
  {
    std::string bad = text;
    const size_t line_end = bad.find('\n', bad.find("authority "));
    bad.insert(line_end, " extra");
    ExpectVoteRefused(bad, "fourth authority-line word");
  }

  // Unknown flag words on the s line.
  {
    std::string bad = text;
    const size_t s_pos = bad.find("\ns ");
    bad.insert(s_pos + 3, "Bogus ");
    ExpectVoteRefused(bad, "unknown flag");
  }
}

TEST(CodecPropertyTest, MissingFooterIsRejected) {
  std::string text = SerializeVote(SmallVote());
  text.resize(text.size() - std::string("directory-footer\n").size());
  ExpectVoteRefused(text, "missing footer");
}

TEST(CodecPropertyTest, TrailingJunkAfterTheDocumentIsRejected) {
  ExpectVoteRefused(SerializeVote(SmallVote()) + "garbage trailing line\n",
                    "vote junk after the footer");

  const std::string consensus_text = SerializeConsensus(SmallConsensus(1));
  EXPECT_TRUE(ParseConsensus(consensus_text).ok());
  ExpectConsensusRefused(consensus_text + "garbage trailing line\n",
                         "consensus junk after the footer");
  // A malformed signature line after valid ones.
  ExpectConsensusRefused(consensus_text + "directory-signature 9\n", "one-word signature line");
  // Well-formed line, bad signature bytes.
  ExpectConsensusRefused(consensus_text + "directory-signature 9 abcd\n", "short signature");
}

TEST(CodecPropertyTest, NonCanonicalSpacingAndItemOrderAreRejected) {
  const std::string text = SerializeVote(SmallVote());

  // Double the space after "r" on every r line: the same words, a second
  // spelling.
  {
    std::string spaced = text;
    for (size_t pos = spaced.find("\nr "); pos != std::string::npos;
         pos = spaced.find("\nr ", pos + 3)) {
      spaced.insert(pos + 2, " ");
    }
    ExpectVoteRefused(spaced, "doubled r-line space");
  }

  // Reorder a relay's item lines (p before w).
  {
    std::string reordered = text;
    const size_t w_pos = reordered.find("\nw ");
    const size_t p_pos = reordered.find("\np ", w_pos);
    const size_t m_pos = reordered.find("\nm ", p_pos);
    const std::string w_line = reordered.substr(w_pos + 1, p_pos - w_pos);
    const std::string p_line = reordered.substr(p_pos + 1, m_pos - p_pos);
    reordered.replace(w_pos + 1, m_pos - w_pos, p_line + w_line);
    ExpectVoteRefused(reordered, "p line before w line");
  }
}

TEST(CodecPropertyTest, NumericEdgeCasesAreRejected) {
  const std::string text = SerializeVote(SmallVote());

  // Overflowing bandwidth (> uint64).
  {
    std::string bad = text;
    const size_t w_pos = bad.find("Bandwidth=") + 10;
    const size_t w_end = bad.find_first_of(" \n", w_pos);
    bad.replace(w_pos, w_end - w_pos, "99999999999999999999999");
    ExpectVoteRefused(bad, "bandwidth above uint64");
  }

  // 2^64 exactly: one past the largest value, which wraps to 0 when read.
  {
    std::string bad = text;
    const size_t w_pos = bad.find("Bandwidth=") + 10;
    const size_t w_end = bad.find_first_of(" \n", w_pos);
    bad.replace(w_pos, w_end - w_pos, "18446744073709551616");
    ExpectVoteRefused(bad, "bandwidth of 2^64");
  }

  // Trailing junk glued onto the published field.
  {
    std::string bad = text;
    const size_t r_end = bad.find('\n', bad.find("\nr ") + 1);
    bad.insert(r_end, "x");
    ExpectVoteRefused(bad, "junk after the published field");
  }
}

TEST(CodecPropertyTest, CanonicalCornerDocumentsRoundTrip) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const VoteDocument base = SmallVote();
  ASSERT_GE(base.relays.size(), 2u);

  {
    // What TorMult-style inflation saturates to.
    VoteDocument vote = base;
    vote.relays[0].bandwidth = kMax;
    vote.relays[0].measured = kMax;
    vote.relays[1].published = kMax;
    vote.valid_until = kMax;
    ExpectVoteRoundTrips(vote, "uint64 max bandwidth and measured");
  }
  {
    VoteDocument vote = base;
    vote.relays[0].or_port = 0;
    vote.relays[0].dir_port = 65535;
    vote.relays[1].or_port = 65535;
    vote.relays[1].dir_port = 0;
    ExpectVoteRoundTrips(vote, "ports 0 and 65535");
  }
  {
    VoteDocument vote = base;
    vote.relays[0].flags = 0;
    vote.relays[1].flags = kAllRelayFlags;
    ExpectVoteRoundTrips(vote, "no flags and all flags");
  }
  {
    VoteDocument vote = base;
    vote.relays[0].version = "";
    vote.relays[0].protocols = "";
    vote.relays[1].protocols = "";
    ExpectVoteRoundTrips(vote, "no v and pr lines");
  }
  {
    VoteDocument vote = base;
    vote.relays[0].exit_policy = "";
    vote.relays[1].measured.reset();
    ExpectVoteRoundTrips(vote, "empty exit policy, no Measured");
  }
  {
    VoteDocument vote = base;
    vote.relays.clear();
    ExpectVoteRoundTrips(vote, "zero relays");
  }

  ExpectConsensusRoundTrips(SmallConsensus(0), "consensus with no signatures");
  ExpectConsensusRoundTrips(SmallConsensus(3), "consensus with three signatures");
  {
    ConsensusDocument empty = SmallConsensus(3);
    empty.relays.clear();
    ExpectConsensusRoundTrips(empty, "consensus with zero relays");
  }
}

TEST(CodecPropertyTest, SecondSpellingsOfAVoteAreRejected) {
  // Each differs from a canonical vote in one line, and none is the writer's
  // output for any document.
  const std::string text = SerializeVote(SmallVote());
  const size_t first_row = text.find("\nr ");
  ASSERT_NE(first_row, std::string::npos);

  ExpectVoteRefused(ReplaceFirst(text, "Bandwidth=", "Bandwidth=0"), "leading zero");
  {
    // Uppercase microdesc hex (the writer emits lowercase).
    std::string bad = text;
    const size_t m_pos = bad.find("\nm ") + 3;
    for (size_t i = m_pos; i < m_pos + 64; ++i) {
      bad[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(bad[i])));
    }
    ASSERT_NE(bad, text);
    ExpectVoteRefused(bad, "uppercase microdesc hex");
  }
  {
    // Descriptor-digest word that is not the microdesc digest's prefix.
    std::string bad = text;
    const size_t fp_end = bad.find(' ', bad.find(' ', first_row + 3) + 1);
    bad.replace(fp_end + 1, 16, "0123456789abcdef");
    ASSERT_NE(bad, text);
    ExpectVoteRefused(bad, "wrong descriptor prefix");
  }
  {
    // or_port 70000 narrows to 4464 when read.
    std::string bad = text;
    const size_t r_end = bad.find('\n', first_row + 1);
    const size_t published = bad.rfind(' ', r_end - 1);
    const size_t dir_port = bad.rfind(' ', published - 1);
    const size_t or_port = bad.rfind(' ', dir_port - 1);
    bad.replace(or_port + 1, dir_port - or_port - 1, "70000");
    ExpectVoteRefused(bad, "or_port 70000");
  }
  {
    const size_t after = text.find("valid-after ");
    const size_t fresh = text.find("fresh-until ");
    const size_t until = text.find("valid-until ");
    std::string reordered = text;
    reordered.replace(after, until - after,
                      text.substr(fresh, until - fresh) + text.substr(after, fresh - after));
    ExpectVoteRefused(reordered, "reordered headers");
  }
  ExpectVoteRefused(text + "junk\n", "junk after the footer");
  ExpectVoteRefused(ReplaceFirst(text, "\nvalid-after ", "\n\nvalid-after "),
                    "blank header line");
  ExpectVoteRefused(ReplaceFirst(text, "known-flags Authority ", "known-flags "),
                    "edited known-flags line");
}

TEST(CodecPropertyTest, SecondSpellingsOfAConsensusAreRejected) {
  const std::string text = SerializeConsensus(SmallConsensus(2));
  const size_t w_end = text.find('\n', text.find("\nw Bandwidth=") + 1);
  std::string measured = text;
  measured.insert(w_end, " Measured=5");
  ExpectConsensusRefused(measured, "Measured= in a consensus row");
  ExpectConsensusRefused(
      ReplaceFirst(text, "\ndirectory-signature ", "\n\ndirectory-signature ",
                   text.find("directory-signature ") + 1),
      "blank line between signatures");
}

}  // namespace
}  // namespace tordir
