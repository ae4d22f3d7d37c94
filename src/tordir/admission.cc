#include "src/tordir/admission.h"

#include <cassert>
#include <utility>

#include "src/tordir/dirspec.h"

namespace tordir {

VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache, std::string_view text,
                        uint64_t period_start) {
  // A byte match names its entry's digest, which the digest form finds again
  // without hashing.
  const VoteCache::Entry* hit = VoteCache::FindTextIn(cache, text);
  return AdmitVote(cache, text, hit != nullptr ? hit->first : torcrypto::Digest256::Of(text),
                   period_start);
}

VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache, std::string_view text,
                        const torcrypto::Digest256& digest, uint64_t period_start) {
  VoteAdmission admission;
  admission.digest = digest;
  if (const CachedVote* cached = VoteCache::FindIn(cache, digest)) {
    admission.author = cached->document->authority;
    admission.document = cached->document;
    admission.text = cached->text;
    return admission;
  }

  assert(torcrypto::Digest256::Of(text) == digest && "AdmitVote: digest is not Of(text)");
  // ParseVote accepts only the writer's own bytes, so a parsed text is
  // canonical and `digest` names its one encoding.
  auto parsed = ParseVote(text);
  if (!parsed.ok()) {
    admission.status =
        torbase::Status::InvalidArgument("malformed vote: " + parsed.status().message());
    admission.reason = VoteRejectReason::kMalformed;
    return admission;
  }
  VoteDocument document = std::move(*parsed);

  admission.author = document.authority;
  if (document.valid_until <= period_start) {
    admission.status = torbase::Status::FailedPrecondition(
        "replayed vote: validity window [" + std::to_string(document.valid_after) + ", " +
        std::to_string(document.valid_until) + ") closed before period start " +
        std::to_string(period_start));
    admission.reason = VoteRejectReason::kStaleWindow;
    return admission;
  }

  admission.document = std::make_shared<const VoteDocument>(std::move(document));
  admission.text = std::make_shared<const std::string>(text);
  return admission;
}

}  // namespace tordir
