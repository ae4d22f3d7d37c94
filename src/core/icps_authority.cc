#include "src/core/icps_authority.h"

#include <algorithm>

#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"

namespace toricc {
namespace {

constexpr const char* kKindDocument = "DOCUMENT";
constexpr const char* kKindProposal = "PROPOSAL";
constexpr const char* kKindAgreement = "AGREEMENT";
constexpr const char* kKindDocFetch = "DOC_FETCH";
constexpr const char* kKindConsensusSig = "CONSENSUS_SIG";

}  // namespace

IcpsAuthority::IcpsAuthority(const IcpsConfig& config, const torcrypto::KeyDirectory* directory,
                             torproto::AuthorityMaterials materials)
    : AuthorityCore(directory, std::move(materials)),
      config_(config),
      own_digest_(torcrypto::Digest256::Of(*own_vote_text_)) {}

std::optional<std::pair<uint64_t, torbase::NodeId>> IcpsAuthority::agreement_view() const {
  if (!agreement_.has_value() || agreement_->decided() || agreement_->current_view() == 0) {
    return std::nullopt;
  }
  const uint64_t view = agreement_->current_view();
  return std::make_pair(view, agreement_->LeaderOf(view));
}

void IcpsAuthority::Start() {
  // Self-delivery of our own document.
  ReceivedDoc own;
  own.digest = own_digest_;
  own.text = own_vote_text_;
  own.sender_sig = signer_.Sign(EntryPayload(id(), own_digest_));
  documents_.emplace(id(), std::move(own));

  BroadcastDocument();
  SetTimer(config_.dissemination_timeout, [this] { OnDisseminationTimeout(); });

  // Agreement engine with dissemination glue.
  torbft::HotStuffNode::Callbacks callbacks;
  callbacks.send = [this](torbase::NodeId to, torbase::Bytes message) {
    SendTo(to, kKindAgreement, std::move(message));
  };
  callbacks.set_timer = [this](torbase::Duration d, std::function<void()> fn) {
    return SetTimer(d, std::move(fn));
  };
  callbacks.cancel_timer = [this](torsim::EventId event) { CancelTimer(event); };
  callbacks.get_proposal = [this] { return LeaderValue(); };
  callbacks.validate = [this](const torbase::Bytes& value) { return ValidateValue(value); };
  callbacks.on_decide = [this](const torbase::Bytes& value) { OnDecide(value); };
  callbacks.now = [this] { return now(); };
  agreement_.emplace(id(), config_.hotstuff, directory_, std::move(callbacks));
  agreement_->Start();
}

void IcpsAuthority::BroadcastDocument() {
  log().Notice(now(), "Disseminating vote document (" + std::to_string(own_vote_text_->size()) +
                          " bytes).");
  // An equivocator's second document is correctly signed too: each peer's
  // direct copy verifies in isolation, and the split only surfaces in the
  // PROPOSAL cross-check (possibly forcing a ⟂ entry) and in the health
  // monitor's per-peer digest comparison.
  torcrypto::Digest256 second_digest;
  torcrypto::Signature second_sig;
  if (second_vote_text_ != nullptr) {
    second_digest = torcrypto::Digest256::Of(*second_vote_text_);
    second_sig = signer_.Sign(EntryPayload(id(), second_digest));
  }
  const torcrypto::Signature own_sig = documents_.at(id()).sender_sig;
  BroadcastVote(kKindDocument, [&](torbase::Writer& w, const std::string& text, bool alternate) {
    const torcrypto::Signature& sig = alternate ? second_sig : own_sig;
    w.Reserve(text.size() + 128);
    w.WriteU8(kDocument);
    w.WriteString(text);
    w.WriteRaw((alternate ? second_digest : own_digest_).span());
    w.WriteU32(sig.signer);
    w.WriteRaw(sig.bytes);
  });
}

void IcpsAuthority::OnMessage(torbase::NodeId from, const torbase::Bytes& payload) {
  torbase::Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) {
    return;
  }
  if (*type >= 1 && *type <= 8) {
    // HotStuff engine message; re-feed without the tag (the engine reads its
    // own tag byte).
    if (agreement_.has_value()) {
      agreement_->OnMessage(from, payload);
    }
    return;
  }
  switch (*type) {
    case kDocument:
      HandleDocument(from, r);
      break;
    case kProposal:
      HandleProposal(from, r);
      break;
    case kDocRequest:
      HandleDocRequest(from, r);
      break;
    case kDocResponse:
      HandleDocResponse(from, r);
      break;
    case kConsensusSig:
      HandleConsensusSig(from, r);
      break;
    default:
      log().Warn(now(), "Unknown message type " + std::to_string(*type));
  }
}

void IcpsAuthority::HandleDocument(torbase::NodeId from, torbase::Reader& r) {
  auto text = r.ReadString();
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  auto signer = r.ReadU32();
  auto sig_raw = r.ReadRaw(64);
  if (!text.ok() || !digest_raw.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  const torcrypto::Digest256 digest = torcrypto::Digest256::Of(*text);
  std::array<uint8_t, torcrypto::kSha256DigestSize> claimed;
  std::copy(digest_raw->begin(), digest_raw->end(), claimed.begin());
  if (digest != torcrypto::Digest256(claimed)) {
    log().Warn(now(), "Document digest mismatch from " + std::to_string(from));
    return;
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  if (sig.signer != from || !directory_->Verify(EntryPayload(from, digest), sig)) {
    log().Warn(now(), "Bad document signature from " + std::to_string(from));
    return;
  }
  // Admission: the sender signed these exact bytes, so all reject reasons are
  // attributable to `from` directly.
  tordir::VoteAdmission admission =
      Admit(*text, &digest, from, torproto::StaleBlame::kCulprit,
            "Rejecting document from " + std::to_string(from));
  if (!admission.status.ok()) {
    return;
  }
  Observe(from, admission);
  StoreDocument(from, std::move(admission.text), digest, sig);
}

void IcpsAuthority::StoreDocument(torbase::NodeId sender, std::shared_ptr<const std::string> text,
                                  const torcrypto::Digest256& digest,
                                  const torcrypto::Signature& sender_sig) {
  auto it = documents_.find(sender);
  if (it != documents_.end()) {
    if (it->second.digest != digest && equivocations_.count(sender) == 0) {
      // The sender signed two different documents: keep the evidence. The
      // PROPOSAL cross-check in BuildCertifiedVector turns this into a ⟂ entry
      // when different nodes received different versions.
      log().Warn(now(), "Authority " + std::to_string(sender) +
                            " equivocated its vote document.");
      equivocations_.emplace(sender, ReceivedDoc{digest, std::move(text), sender_sig});
    }
    return;
  }
  documents_.emplace(sender, ReceivedDoc{digest, std::move(text), sender_sig});
  if (documents_.size() == config_.authority_count &&
      outcome_.documents_complete_at == torbase::kTimeNever) {
    outcome_.documents_complete_at = now();
  }
  MaybeSendProposal();
}

void IcpsAuthority::OnDisseminationTimeout() {
  dissemination_timed_out_ = true;
  MaybeSendProposal();
}

void IcpsAuthority::MaybeSendProposal() {
  const uint32_t quorum = config_.authority_count - config_.fault_tolerance;
  const bool have_all = documents_.size() == config_.authority_count;
  const bool have_quorum_after_timeout = dissemination_timed_out_ && documents_.size() >= quorum;
  if (proposal_sent_ || (!have_all && !have_quorum_after_timeout)) {
    return;
  }
  proposal_sent_ = true;
  outcome_.proposal_sent_at = now();

  const Proposal proposal = BuildOwnProposal();
  proposals_[id()] = proposal;
  torbase::Writer w;
  w.WriteU8(kProposal);
  proposal.Encode(w);
  log().Info(now(), "Sending PROPOSAL (" + std::to_string(documents_.size()) + " of " +
                        std::to_string(config_.authority_count) + " documents).");
  SendToAllOthers(kKindProposal, w.buffer());
  if (agreement_.has_value()) {
    agreement_->NotifyProposalReady();
  }
}

Proposal IcpsAuthority::BuildOwnProposal() const {
  Proposal proposal;
  proposal.proposer = id();
  proposal.entries.resize(config_.authority_count);
  for (torbase::NodeId j = 0; j < config_.authority_count; ++j) {
    ProposalEntry& entry = proposal.entries[j];
    auto it = documents_.find(j);
    if (it != documents_.end()) {
      entry.digest = it->second.digest;
      entry.sender_sig = it->second.sender_sig;
    }
    entry.proposer_sig = signer_.Sign(EntryPayload(j, entry.digest));
  }
  return proposal;
}

void IcpsAuthority::HandleProposal(torbase::NodeId from, torbase::Reader& r) {
  auto proposal = Proposal::Decode(r);
  if (!proposal.ok()) {
    return;
  }
  if (proposal->proposer != from || !proposal->Verify(*directory_, config_.authority_count)) {
    log().Warn(now(), "Invalid PROPOSAL from " + std::to_string(from));
    return;
  }
  proposals_[from] = std::move(*proposal);
  if (agreement_.has_value()) {
    agreement_->NotifyProposalReady();
  }
}

std::optional<torbase::Bytes> IcpsAuthority::LeaderValue() {
  auto vector =
      BuildCertifiedVector(proposals_, config_.authority_count, config_.fault_tolerance);
  if (!vector.has_value()) {
    return std::nullopt;
  }
  return vector->Encode();
}

bool IcpsAuthority::ValidateValue(const torbase::Bytes& value) {
  auto vector = CertifiedVector::Decode(value);
  if (!vector.ok()) {
    return false;
  }
  return vector->Verify(*directory_, config_.authority_count, config_.fault_tolerance);
}

void IcpsAuthority::OnDecide(const torbase::Bytes& value) {
  auto vector = CertifiedVector::Decode(value);
  if (!vector.ok()) {
    log().Err(now(), "Decided value failed to decode; this should be impossible.");
    return;
  }
  agreed_vector_ = std::move(*vector);
  outcome_.decided = true;
  outcome_.decided_at = now();
  outcome_.vector_non_empty = static_cast<uint32_t>(agreed_vector_->NonEmptyCount());
  outcome_.documents_held = static_cast<uint32_t>(documents_.size());
  log().Notice(now(), "Agreement reached on digest vector (" +
                          std::to_string(outcome_.vector_non_empty) + " of " +
                          std::to_string(config_.authority_count) + " documents included).");
  RequestMissingDocuments();
  MaybeFinishAggregation();
}

void IcpsAuthority::RequestMissingDocuments() {
  for (torbase::NodeId j = 0; j < config_.authority_count; ++j) {
    const VectorEntry& entry = agreed_vector_->entries[j];
    if (!entry.NonEmpty()) {
      continue;
    }
    auto it = documents_.find(j);
    if (it != documents_.end() && it->second.digest == *entry.digest) {
      continue;  // already have the agreed version
    }
    pending_fetches_.insert(j);
    // Ask the proof witnesses: they signed that they hold this document, and
    // at least one of them is correct (f + 1 witnesses).
    torbase::Writer w;
    w.WriteU8(kDocRequest);
    w.WriteU32(j);
    w.WriteRaw(entry.digest->span());
    for (const auto& witness : entry.witness_sigs) {
      if (witness.signer != id()) {
        SendTo(witness.signer, kKindDocFetch, w.buffer());
      }
    }
    // The sender itself also holds it.
    if (j != id()) {
      SendTo(j, kKindDocFetch, w.buffer());
    }
  }
}

void IcpsAuthority::HandleDocRequest(torbase::NodeId from, torbase::Reader& r) {
  auto j = r.ReadU32();
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  if (!j.ok() || !digest_raw.ok()) {
    return;
  }
  auto it = documents_.find(*j);
  if (it == documents_.end()) {
    return;
  }
  std::array<uint8_t, torcrypto::kSha256DigestSize> wanted;
  std::copy(digest_raw->begin(), digest_raw->end(), wanted.begin());
  if (it->second.digest != torcrypto::Digest256(wanted)) {
    return;  // we hold a different version; not useful
  }
  torbase::Writer w;
  w.Reserve(it->second.text->size() + 128);
  w.WriteU8(kDocResponse);
  w.WriteU32(*j);
  w.WriteString(*it->second.text);
  w.WriteU32(it->second.sender_sig.signer);
  w.WriteRaw(it->second.sender_sig.bytes);
  SendTo(from, kKindDocFetch, w.TakeBuffer());
}

void IcpsAuthority::HandleDocResponse(torbase::NodeId from, torbase::Reader& r) {
  (void)from;
  auto j = r.ReadU32();
  auto text = r.ReadString();
  auto signer = r.ReadU32();
  auto sig_raw = r.ReadRaw(64);
  if (!j.ok() || !text.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  if (pending_fetches_.count(*j) == 0 || !agreed_vector_.has_value()) {
    return;  // duplicate or unsolicited
  }
  const VectorEntry& entry = agreed_vector_->entries[*j];
  const torcrypto::Digest256 digest = torcrypto::Digest256::Of(*text);
  if (!entry.digest.has_value() || digest != *entry.digest) {
    return;  // wrong document
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  if (sig.signer != *j || !directory_->Verify(EntryPayload(*j, digest), sig)) {
    return;
  }
  // Same admission as the direct dissemination path: a certified-but-faulty
  // document (only possible past the fault tolerance) must still not enter
  // aggregation.
  tordir::VoteAdmission admission =
      Admit(*text, &digest, *j, torproto::StaleBlame::kCulprit,
            "Rejecting fetched document for " + std::to_string(*j));
  if (!admission.status.ok()) {
    return;
  }
  Observe(*j, admission);
  ReceivedDoc doc;
  doc.digest = digest;
  doc.text = std::move(admission.text);
  doc.sender_sig = sig;
  documents_[*j] = std::move(doc);
  pending_fetches_.erase(*j);
  MaybeFinishAggregation();
}

void IcpsAuthority::MaybeFinishAggregation() {
  if (!agreed_vector_.has_value() || consensus_digest_.has_value() ||
      !pending_fetches_.empty()) {
    return;
  }
  // All agreed documents present: aggregate exactly the non-⟂ entries. The
  // agreed digests are the canonical workload votes in the honest runs, so
  // the cache turns this into pointer lookups; a miss parses as before.
  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  votes.reserve(agreed_vector_->entries.size());
  for (torbase::NodeId j = 0; j < config_.authority_count; ++j) {
    const VectorEntry& entry = agreed_vector_->entries[j];
    if (!entry.NonEmpty()) {
      continue;
    }
    const ReceivedDoc& doc = documents_.at(j);
    // Both receive paths already admitted the document, except our own (an
    // honest authority's by definition, but a byzantine self's stale/mutated
    // one must not be laundered into the consensus through this spot).
    tordir::VoteAdmission admission =
        Admit(*doc.text, &doc.digest, j == id() ? torbase::kNoNode : j,
              torproto::StaleBlame::kCulprit, "Agreed document " + std::to_string(j) + " rejected");
    if (!admission.status.ok()) {
      continue;
    }
    votes.push_back(std::move(admission.document));
  }
  std::vector<const tordir::VoteDocument*> vote_ptrs;
  vote_ptrs.reserve(votes.size());
  for (const auto& vote : votes) {
    vote_ptrs.push_back(vote.get());
  }
  outcome_.consensus = tordir::ComputeConsensus(vote_ptrs, config_.aggregation);
  consensus_digest_ = tordir::ConsensusDigest(outcome_.consensus);
  log().Notice(now(), "Consensus computed from " + std::to_string(votes.size()) +
                          " documents (" + std::to_string(outcome_.consensus.relays.size()) +
                          " relays); broadcasting signature.");

  const torcrypto::Signature sig = signer_.Sign(consensus_digest_->span());
  AcceptConsensusSig(sig);
  // Replay signatures that arrived before we finished aggregating.
  std::vector<torcrypto::Signature> pending;
  pending.swap(pending_consensus_sigs_);
  for (const auto& early_sig : pending) {
    AcceptConsensusSig(early_sig);
  }
  torbase::Writer w;
  w.WriteU8(kConsensusSig);
  w.WriteRaw(consensus_digest_->span());
  w.WriteU32(sig.signer);
  w.WriteRaw(sig.bytes);
  SendToAllOthers(kKindConsensusSig, w.buffer());
}

void IcpsAuthority::HandleConsensusSig(torbase::NodeId from, torbase::Reader& r) {
  (void)from;
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  auto signer = r.ReadU32();
  auto sig_raw = r.ReadRaw(64);
  if (!digest_raw.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  AcceptConsensusSig(sig);
}

void IcpsAuthority::AcceptConsensusSig(const torcrypto::Signature& sig) {
  if (!consensus_digest_.has_value()) {
    // Peers that finished aggregation first may sign before we do; keep their
    // signatures until our own consensus digest exists.
    pending_consensus_sigs_.push_back(sig);
    return;
  }
  if (sig.signer >= config_.authority_count || consensus_sigs_.count(sig.signer) > 0) {
    return;
  }
  if (!directory_->Verify(consensus_digest_->span(), sig)) {
    log().Warn(now(), "Consensus signature from " + std::to_string(sig.signer) +
                          " does not match our document.");
    return;
  }
  consensus_sigs_.emplace(sig.signer, sig);
  if (!outcome_.valid_consensus && consensus_sigs_.size() >= config_.SignatureThreshold()) {
    outcome_.valid_consensus = true;
    outcome_.finished_at = now();
    for (const auto& [signer, s] : consensus_sigs_) {
      outcome_.consensus.signatures.push_back(s);
    }
    log().Notice(now(), "Consensus valid with " + std::to_string(consensus_sigs_.size()) +
                            " signatures.");
  }
}

}  // namespace toricc
