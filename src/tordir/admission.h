// Vote admission: the single accept/reject gate every protocol runs on a vote
// text it received off the wire.
//
//   * kMalformed    — the bytes are not a vote the writer would emit. ParseVote
//                     accepts only canonical bytes (src/tordir/dirspec.h), so
//                     this covers unparseable text and every second spelling
//                     of a document alike: two authorities holding
//                     byte-different texts of the "same" vote would otherwise
//                     disagree about its digest.
//   * kStaleWindow  — a well-formed vote whose validity window has already
//                     closed relative to the receiver's current period: a
//                     replayed or expired document.
//
// A cache hit short-circuits both checks: byte equality with one of the
// workload's canonical texts proves the document is well-formed and carries
// the current period's window. The text-only form finds that hit by comparing
// bytes (VoteCache::FindText) and hashes only on a miss; the digest form
// looks the caller's digest up instead.
#ifndef SRC_TORDIR_ADMISSION_H_
#define SRC_TORDIR_ADMISSION_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/crypto/digest.h"
#include "src/tordir/vote.h"

namespace tordir {

enum class VoteRejectReason {
  kMalformed,    // not the canonical encoding of any vote
  kStaleWindow,  // valid_until has passed: replayed/expired signature window
};

struct VoteAdmission {
  // Ok when admitted; otherwise a specific message for the protocol's log.
  torbase::Status status = torbase::Status::Ok();
  // Meaningful only when !status.ok().
  VoteRejectReason reason = VoteRejectReason::kMalformed;
  // The vote's claimed author when the document parsed (set for stale
  // rejects); kNoNode otherwise.
  torbase::NodeId author = torbase::kNoNode;

  // Set when admitted.
  std::shared_ptr<const VoteDocument> document;
  std::shared_ptr<const std::string> text;
  torcrypto::Digest256 digest;
};

// Admits or rejects `text` as seen by a receiver whose current voting period
// started at `period_start` (unix seconds; receivers pass their own vote's
// valid_after). `cache` may be null. `text` is only read during the call; an
// admitted vote's `text` is the cache's shared copy on a hit, or a private
// copy.
VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache, std::string_view text,
                        uint64_t period_start);

// Same, for callers that already hashed the text (saves re-hashing in
// digest-first protocols like ICPS). Precondition: `digest` is
// Digest256::Of(text). A cache hit trusts it as proof of byte equality, and an
// admitted vote reports it as its identity; Debug builds assert it on a miss.
VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache, std::string_view text,
                        const torcrypto::Digest256& digest, uint64_t period_start);

}  // namespace tordir

#endif  // SRC_TORDIR_ADMISSION_H_
