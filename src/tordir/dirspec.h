// Text serialization of votes and consensus documents in the dir-spec v3 style.
//
// The wire size of these documents is what drives every bandwidth experiment in
// the paper (a vote is a few hundred bytes per relay), so the format keeps the
// realistic per-relay line structure:
//
//   r <nickname> <FP-40-hex> <digest-16-hex> <address> <orport> <dirport> <published>
//   s <flags...>
//   v <version>
//   pr <protocol versions>
//   w Bandwidth=<n> [Measured=<n>]
//   p <exit policy summary>
//   m <sha256-hex microdescriptor digest>
//
// The writer is the one definition of the format. A parser accepts a text
// exactly when it is the writer's own output: it scans the fixed shape, renders
// the scanned document again and compares the bytes, and refuses anything else
// with an InvalidArgument status. Integer spelling, hex case, port and id
// ranges, the descriptor-digest prefix, line order and which optional lines
// appear are therefore all decided by the writer, and Serialize(Parse(x)) == x
// holds byte-exactly for every accepted x. That matters because authorities
// name votes by the digest of their bytes: a second accepted spelling of one
// document would split their views.
#ifndef SRC_TORDIR_DIRSPEC_H_
#define SRC_TORDIR_DIRSPEC_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/crypto/digest.h"
#include "src/tordir/vote.h"

namespace torbase {
class ThreadPool;
}  // namespace torbase

namespace tordir {

// --- votes ----------------------------------------------------------------
std::string SerializeVote(const VoteDocument& vote);
// Only scans `text`; the document keeps no reference into it.
torbase::Result<VoteDocument> ParseVote(std::string_view text);

// Digest of the serialized vote; this is the "h_i" the dissemination
// sub-protocol signs and agrees on.
torcrypto::Digest256 VoteDigest(const VoteDocument& vote);

// --- consensus ------------------------------------------------------------
// Serializes without the signature lines; this is the byte string authorities
// sign.
std::string SerializeConsensusUnsigned(const ConsensusDocument& consensus);
// Serializes including "directory-signature" lines.
std::string SerializeConsensus(const ConsensusDocument& consensus);
// Parses the signed form SerializeConsensus emits.
torbase::Result<ConsensusDocument> ParseConsensus(const std::string& text);

// Digest of the unsigned consensus body (what signatures cover).
torcrypto::Digest256 ConsensusDigest(const ConsensusDocument& consensus);

// --- tree digests ----------------------------------------------------------
// Parallel-friendly digests over the canonical serialized bytes, using the
// fixed "sha256-tree-v1" shape (src/crypto/sha256_tree.h). NOT
// interchangeable with the streaming digests above — tree digests are a
// distinct domain with their own goldens — and the protocol-visible digests
// (vote identity, signature subjects) stay on the streaming form. With a
// pool, leaf hashing fans out over its workers; the result is bit-identical
// at any thread count (and to pool == nullptr, which streams without
// materializing the document).
torcrypto::Digest256 TreeVoteDigest(const VoteDocument& vote, torbase::ThreadPool* pool = nullptr);

// Tree digest of the *signed* consensus bytes (exactly what SerializeConsensus
// emits, signature lines included). This is the framing digest the consensus
// diff codec (src/tordir/consensus_diff.h) pins base and target documents
// with, so a cache can verify a patched document against the digest without
// reserializing anything.
torcrypto::Digest256 TreeSignedConsensusDigest(const ConsensusDocument& consensus,
                                               torbase::ThreadPool* pool = nullptr);

// --- canonical fragment writers ---------------------------------------------
// Append the exact bytes the serializers above would emit for a consensus
// header (the lines before the first relay row; relays and signatures are
// ignored), for one relay row group (r/s/[v]/[pr]/w/p/m lines;
// include_measured selects the vote form) or for a document's
// "directory-signature" tail. The diff codec builds patched documents and
// replacement rows with these so they splice byte-identically into the full
// serialization.
void AppendConsensusHeaderText(std::string& out, const ConsensusDocument& consensus);
void AppendRelayRowText(std::string& out, const RelayStatus& relay, bool include_measured);
void AppendSignatureLinesText(std::string& out,
                              const std::vector<torcrypto::Signature>& signatures);

// Approximate serialized vote size in bytes for `relay_count` relays, without
// building the document. Used by benches for analytic sanity checks.
size_t EstimateVoteSizeBytes(size_t relay_count);

}  // namespace tordir

#endif  // SRC_TORDIR_DIRSPEC_H_
