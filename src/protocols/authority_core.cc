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
      round_state_(std::move(materials.round_state)),
      document_store_(materials.document_store != nullptr
                          ? std::move(materials.document_store)
                          : std::make_shared<DocumentStore>()) {
  if (own_vote_text_ == nullptr) {
    own_vote_text_ = std::make_shared<const std::string>(tordir::SerializeVote(*own_vote_));
  }
}

tordir::VoteAdmission AuthorityCore::Admit(std::string_view text,
                                           const torcrypto::Digest256* digest, NodeId culprit,
                                           StaleBlame stale_blame, std::string_view context) {
  // A cache hit — the workload's own bytes, found by comparing them or by the
  // caller's digest — is a canonical vote already held parsed, so ParseVote
  // (and a private copy of the multi-megabyte text) is skipped; misses are
  // hashed, parsed, canonicality-checked and validity-window-checked.
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

AuthorityCore::HeldText AuthorityCore::Hold(std::string_view text) const {
  if (const tordir::VoteCache::Entry* hit = tordir::VoteCache::FindTextIn(vote_cache_, text)) {
    return {hit->first, hit->second.text};
  }
  return {torcrypto::Digest256::Of(text), std::make_shared<const std::string>(text)};
}

std::shared_ptr<const std::string> AuthorityCore::Share(std::string_view text) const {
  const tordir::VoteCache::Entry* hit = tordir::VoteCache::FindTextIn(vote_cache_, text);
  return hit != nullptr ? hit->second.text : std::make_shared<const std::string>(text);
}

void AuthorityCore::Observe(NodeId sender, const tordir::VoteAdmission& admission) {
  observed_votes_.push_back(ObservedVote{sender, admission.digest, now(), admission.document});
}

torcrypto::Signature AuthorityCore::ComputeConsensus(
    const std::vector<std::shared_ptr<const tordir::VoteDocument>>& votes,
    ConsensusOutcome& outcome) {
  // The store aggregates and digests each distinct vote list once per cell;
  // this authority copies the shared body, since Publish appends its
  // signatures to the copy.
  const DocumentStore::Derived& derived = document_store_->Derive(votes);
  outcome.consensus = *derived.body;
  outcome.computed_consensus = true;
  consensus_digest_ = derived.digest;
  const torcrypto::Signature own = signer_.Sign(consensus_digest_->span());
  AcceptSignature(own, outcome);
  return own;
}

void AuthorityCore::AcceptSignature(const torcrypto::Signature& sig, ConsensusOutcome& outcome) {
  if (!consensus_digest_.has_value() || sig.signer >= node_count() ||
      signatures_.contains(sig.signer)) {
    return;
  }
  if (!directory_->Verify(consensus_digest_->span(), sig)) {
    log().Warn(now(), "Signature from authority " + std::to_string(sig.signer) +
                          " does not match our consensus.");
    return;
  }
  signatures_.emplace(sig.signer, sig);
  if (signatures_.size() == MajorityOf(node_count())) {
    outcome.finished_at = now();
  }
}

void AuthorityCore::Publish(ConsensusOutcome& outcome) {
  outcome.valid_consensus = true;
  for (const auto& [signer, sig] : signatures_) {
    outcome.consensus.signatures.push_back(sig);
  }
  log().Notice(now(), "Consensus valid with " + std::to_string(signatures_.size()) +
                          " signatures.");
}

}  // namespace torproto
