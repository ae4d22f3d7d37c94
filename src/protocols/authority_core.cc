#include "src/protocols/authority_core.h"

#include <cassert>

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
      intern_texts_(materials.document_store != nullptr),
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
  tordir::VoteAdmission admission = AdmitText(text, digest);
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

tordir::VoteAdmission AuthorityCore::AdmitText(std::string_view text,
                                               const torcrypto::Digest256* digest) {
  const uint64_t period_start = own_vote_->valid_after;
  if (!intern_texts_) {
    return digest == nullptr ? tordir::AdmitVote(vote_cache_, text, period_start)
                             : tordir::AdmitVote(vote_cache_, text, *digest, period_start);
  }
  // A cache hit — the workload's own bytes, found by comparing them or by the
  // caller's digest — is a canonical vote already held parsed, so ParseVote
  // (and a private copy of the multi-megabyte text) is skipped.
  if (digest == nullptr) {
    if (const tordir::VoteCache::Entry* hit = tordir::VoteCache::FindTextIn(vote_cache_, text)) {
      return tordir::AdmitCached(hit->second, hit->first);
    }
  } else if (const tordir::CachedVote* hit = tordir::VoteCache::FindIn(vote_cache_, *digest)) {
    return tordir::AdmitCached(*hit, *digest);
  }
  // A miss is parsed once per cell; the window check against this
  // authority's period is its own.
  DocumentStore::Received& received = document_store_->Intern(text);
  assert((digest == nullptr || *digest == torcrypto::Digest256::Of(text)) &&
         "Admit: digest is not Of(text)");
  tordir::VoteAdmission admission =
      tordir::AdmitParsed(document_store_->Parse(received), period_start);
  if (admission.status.ok()) {
    admission.digest = digest != nullptr ? *digest : document_store_->Digest(received);
    admission.text = received.text;
  }
  return admission;
}

AuthorityCore::HeldText AuthorityCore::Hold(std::string_view text) {
  if (const tordir::VoteCache::Entry* hit = tordir::VoteCache::FindTextIn(vote_cache_, text)) {
    return {hit->first, hit->second.text};
  }
  if (!intern_texts_) {
    return {torcrypto::Digest256::Of(text), std::make_shared<const std::string>(text)};
  }
  DocumentStore::Received& received = document_store_->Intern(text);
  return {document_store_->Digest(received), received.text};
}

torcrypto::Digest256 AuthorityCore::DigestOf(std::string_view text) {
  if (const tordir::VoteCache::Entry* hit = tordir::VoteCache::FindTextIn(vote_cache_, text)) {
    return hit->first;
  }
  if (!intern_texts_) {
    return torcrypto::Digest256::Of(text);
  }
  return document_store_->Digest(document_store_->Intern(text));
}

std::shared_ptr<const std::string> AuthorityCore::Share(std::string_view text) {
  if (const tordir::VoteCache::Entry* hit = tordir::VoteCache::FindTextIn(vote_cache_, text)) {
    return hit->second.text;
  }
  return intern_texts_ ? document_store_->Intern(text).text
                       : std::make_shared<const std::string>(text);
}

void AuthorityCore::Observe(NodeId sender, const tordir::VoteAdmission& admission) {
  observed_votes_.push_back(ObservedVote{sender, admission.digest, now(), admission.document});
}

torcrypto::Signature AuthorityCore::ComputeConsensus(
    const std::vector<std::shared_ptr<const tordir::VoteDocument>>& votes,
    ConsensusOutcome& outcome) {
  // The store aggregates and digests each distinct vote list once per cell.
  const DocumentStore::Derived& derived = document_store_->Derive(votes);
  outcome.consensus = derived.body;
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
  std::vector<torcrypto::Signature> signed_by;
  signed_by.reserve(signatures_.size());
  for (const auto& [signer, sig] : signatures_) {
    signed_by.push_back(sig);
  }
  outcome.consensus = document_store_->Signed(outcome.consensus, std::move(signed_by));
  log().Notice(now(), "Consensus valid with " + std::to_string(signatures_.size()) +
                          " signatures.");
}

}  // namespace torproto
