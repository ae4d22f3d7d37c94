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
  if (const CachedVote* cached = VoteCache::FindIn(cache, digest)) {
    return AdmitCached(*cached, digest);
  }
  assert(torcrypto::Digest256::Of(text) == digest && "AdmitVote: digest is not Of(text)");
  VoteAdmission admission = AdmitParsed(ParseReceivedVote(text), period_start);
  admission.digest = digest;
  if (admission.status.ok()) {
    admission.text = std::make_shared<const std::string>(text);
  }
  return admission;
}

ParsedVote ParseReceivedVote(std::string_view text) {
  // ParseVote accepts only the writer's own bytes, so a parsed text is
  // canonical and its digest names its one encoding.
  auto parsed = ParseVote(text);
  if (!parsed.ok()) {
    return torbase::Status::InvalidArgument("malformed vote: " + parsed.status().message());
  }
  return std::make_shared<const VoteDocument>(std::move(*parsed));
}

VoteAdmission AdmitParsed(const ParsedVote& parsed, uint64_t period_start) {
  VoteAdmission admission;
  if (!parsed.ok()) {
    admission.status = parsed.status();
    admission.reason = VoteRejectReason::kMalformed;
    return admission;
  }
  const VoteDocument& document = **parsed;
  admission.author = document.authority;
  if (document.valid_until <= period_start) {
    admission.status = torbase::Status::FailedPrecondition(
        "replayed vote: validity window [" + std::to_string(document.valid_after) + ", " +
        std::to_string(document.valid_until) + ") closed before period start " +
        std::to_string(period_start));
    admission.reason = VoteRejectReason::kStaleWindow;
    return admission;
  }
  admission.document = *parsed;
  return admission;
}

VoteAdmission AdmitCached(const CachedVote& cached, const torcrypto::Digest256& digest) {
  VoteAdmission admission;
  admission.digest = digest;
  admission.author = cached.document->authority;
  admission.document = cached.document;
  admission.text = cached.text;
  return admission;
}

}  // namespace tordir
