#include "src/protocols/authority_core.h"

#include "src/tordir/dirspec.h"

namespace torproto {

AuthorityCore::AuthorityCore(const torcrypto::KeyDirectory* directory,
                             AuthorityMaterials materials)
    : directory_(directory),
      signer_(directory->SignerFor(materials.vote->authority)),
      own_vote_(std::move(materials.vote)),
      own_vote_text_(std::move(materials.vote_text)),
      second_vote_text_(std::move(materials.second_vote_text)),
      vote_cache_(std::move(materials.vote_cache)),
      round_state_(std::move(materials.round_state)) {
  if (own_vote_text_ == nullptr) {
    own_vote_text_ = std::make_shared<const std::string>(tordir::SerializeVote(*own_vote_));
  }
}

tordir::VoteAdmission AuthorityCore::Admit(const std::string& text,
                                           const torcrypto::Digest256* digest, NodeId culprit,
                                           StaleBlame stale_blame, std::string_view context) {
  // A digest hit in the workload cache proves the bytes are a canonical vote
  // already held parsed, so ParseVote (and a private copy of the
  // multi-megabyte text) is skipped; misses are parsed, canonicality-checked
  // and validity-window-checked.
  tordir::VoteAdmission admission =
      digest == nullptr ? tordir::AdmitVote(vote_cache_, text, own_vote_->valid_after)
                        : tordir::AdmitVote(vote_cache_, text, *digest, own_vote_->valid_after);
  if (admission.status.ok()) {
    return admission;
  }
  log().Warn(now(), std::string(context) + ": " + admission.status.ToString());
  if (stale_blame == StaleBlame::kAuthor &&
      admission.reason == tordir::VoteRejectReason::kStaleWindow) {
    culprit = admission.author;
  }
  if (culprit < node_count()) {
    rejected_votes_.push_back(RejectedVote{culprit, admission.reason, now()});
  }
  return admission;
}

void AuthorityCore::Observe(NodeId sender, const tordir::VoteAdmission& admission) {
  observed_votes_.push_back(ObservedVote{sender, admission.digest, now(), admission.document});
}

}  // namespace torproto
