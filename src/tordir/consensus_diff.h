// Relay-row-granularity delta codec between consecutive consensus documents.
//
// Real Tor ships consensus *diffs* so caches and clients never refetch the
// whole multi-megabyte document every hour; wire size is the attack economics
// of the paper (Table 1, Fig. 6/7), and after the codec/hashing PRs made the
// cycles cheap, bytes are the dominant modeled cost of serving millions of
// clients. This codec cuts those bytes: a diff carries only the rows that
// changed between two canonical serializations (dir-spec line-oriented bytes,
// keyed by fingerprint) and patches back to the *byte-identical* full
// document.
//
// Wire format (line-oriented, canonical — ComputeConsensusDiff emits exactly
// this shape and ApplyConsensusDiff refuses everything else; the framing lines
// are parsed and then rendered again, so a second spelling of the same values,
// such as a leading zero or uppercase digest hex, is refused too):
//
//   network-status-diff-version 1
//   base sha256-tree-v1 <64 lowercase hex>     sha256-tree-v1 digest of the
//   target sha256-tree-v1 <64 lowercase hex>   full signed serialization
//   target-votes-counted <n>                   (TreeSignedConsensusDigest)
//   target-valid-after <n>
//   target-fresh-until <n>
//   target-valid-until <n>
//   X <FP-40-hex>                              remove base row FP
//   C <FP-40-hex>                              replace base row FP with the
//   <canonical r/s/../m row lines>             row lines that follow
//   A <FP-40-hex>                              insert a row absent in base
//   <canonical r/s/../m row lines>
//   directory-diff-footer
//   directory-signature <id> <hex>             target's signature lines,
//   ...                                        byte-verbatim
//
// Op lines are uppercase so they can never collide with the lowercase relay
// item lines; ops are strictly increasing by fingerprint (40-char uppercase
// hex compares byte-wise in fingerprint order), which is what lets Apply run
// as one streaming merge over the base bytes with bulk copies between edit
// points. The header rewrites the target's header fields explicitly, and the
// tree digests frame the exchange: a cache verifies the patched document
// against the target digest without reserializing or parsing it, and refuses
// any corrupted diff rather than ever serving a silently wrong document.
#ifndef SRC_TORDIR_CONSENSUS_DIFF_H_
#define SRC_TORDIR_CONSENSUS_DIFF_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/digest.h"
#include "src/tordir/vote.h"

namespace torbase {
class ThreadPool;
}  // namespace torbase

namespace tordir {

struct ConsensusDiffOptions {
  // Precomputed TreeSignedConsensusDigest of base/target; zero (the default)
  // means ComputeConsensusDiff derives them itself. Callers that already hold
  // the digests (a cache naming documents by digest) skip two serializations.
  torcrypto::Digest256 base_digest;
  torcrypto::Digest256 target_digest;
  // Fans the derived digests' leaf hashing out over the pool (bit-identical
  // to serial per the sha256-tree-v1 contract); null hashes serially.
  torbase::ThreadPool* pool = nullptr;
};

// Builds the diff that patches `base`'s full serialization into `target`'s.
// Two-cursor merge over the fingerprint-sorted relay lists (the canonical
// document order); changed rows compare all consensus-serialized fields —
// `measured` is ignored because consensus rows never carry it. O(1) heap
// allocations beyond the output string.
std::string ComputeConsensusDiff(const ConsensusDocument& base, const ConsensusDocument& target,
                                 const ConsensusDiffOptions& options = {});

struct ApplyDiffOptions {
  // Check the base bytes against the diff's base digest before patching.
  // Off by default: a cache that fetched the diff by its own document's
  // digest already knows the base matches, and target verification (below)
  // subsumes output correctness either way.
  bool verify_base = false;
  // Check the patched output against the diff's target digest. This is the
  // "never a silently wrong document" guarantee — leave it on unless the
  // caller verifies the digest itself.
  bool verify_target = true;
  // Parallel leaf hashing for the verification digests; null = serial.
  torbase::ThreadPool* pool = nullptr;
};

// Streams `base`'s serialized bytes through the diff's edit list and returns
// the patched document — byte-identical to SerializeConsensus of the target
// (pinned by goldens). One pass, bulk copies between edit points, O(1) heap
// allocations (the output string plus digest verification scratch). Any
// malformed or corrupted diff is refused with an error, never applied
// wrongly: parse errors catch structural damage, the target digest catches
// everything else.
torbase::Result<std::string> ApplyConsensusDiff(std::string_view base, std::string_view diff,
                                                const ApplyDiffOptions& options = {});

// The framing header of a diff, readable without touching the edit list: a
// cache uses base_digest to pick the right diff for the document it holds and
// target_digest to verify the patched result. Parsing checks the whole
// framing (digests and target header lines) as ApplyConsensusDiff does.
struct ConsensusDiffHeader {
  torcrypto::Digest256 base_digest;
  torcrypto::Digest256 target_digest;
};

torbase::Result<ConsensusDiffHeader> ParseConsensusDiffHeader(std::string_view diff);

// Applies a *chain* of consecutive diffs to `base` — how a cache serves a
// client (or a recovering authority) N rounds behind: compose the per-round
// diffs instead of shipping the full document. The chain's framing digests
// must link up exactly: the first diff's base digest must match the digest of
// `base` (always verified here, regardless of options.verify_base — a chain
// endpoint has no other way to know the client's document is the one the
// chain starts from), and every subsequent diff's base digest must equal the
// previous diff's target digest. Each link's patched output is verified
// against its target digest per options.verify_target. Any framing-digest
// mismatch, anywhere in the chain, refuses the whole application — never a
// silently wrong document. The final output is byte-identical to the full
// serialization of the last diff's target (pinned by consensus_diff_test).
// An empty chain returns a copy of `base`.
torbase::Result<std::string> ApplyConsensusDiffChain(std::string_view base,
                                                     const std::vector<std::string_view>& diffs,
                                                     const ApplyDiffOptions& options = {});

}  // namespace tordir

#endif  // SRC_TORDIR_CONSENSUS_DIFF_H_
