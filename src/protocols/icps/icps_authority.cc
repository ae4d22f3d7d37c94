#include "src/protocols/icps/icps_authority.h"

#include "src/tordir/dirspec.h"

namespace toricc {
namespace {

constexpr const char* kKindDocument = "DOCUMENT";
constexpr const char* kKindProposal = "PROPOSAL";
constexpr const char* kKindAgreement = "AGREEMENT";
constexpr const char* kKindDocFetch = "DOC_FETCH";
constexpr const char* kKindConsensusSig = "CONSENSUS_SIG";

}  // namespace

IcpsAuthority::IcpsAuthority(const torproto::ProtocolRunConfig& config,
                             const torcrypto::KeyDirectory* directory,
                             torproto::AuthorityMaterials materials)
    : AuthorityCore(directory, std::move(materials)),
      config_(config),
      own_digest_(Hold(*own_vote_text_).digest) {}

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
  agreement_.emplace(id(),
                     torbft::HotStuffConfig{.node_count = node_count(),
                                            .two_phase = config_.two_phase_agreement},
                     directory_, std::move(callbacks));
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
  BroadcastVote(kKindDocument, [&](torbase::Writer& w,
                                   const std::shared_ptr<const std::string>& text, bool alternate) {
    w.WriteU8(kDocument);
    w.WriteShared(text);
    w.WriteRaw((alternate ? second_digest : own_digest_).span());
    torcrypto::WriteSignature(w, alternate ? second_sig : own_sig);
  });
}

void IcpsAuthority::OnMessage(torbase::NodeId from, const torbase::Frame& payload) {
  torbase::Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) {
    return;
  }
  if (*type >= 1 && *type <= 8) {
    // HotStuff engine message; re-feed it whole (the engine reads its own tag
    // byte). The engine writes no shared texts, so its frames are their head.
    if (agreement_.has_value()) {
      if (payload.segments.empty()) {
        agreement_->OnMessage(from, payload.head);
      } else {
        agreement_->OnMessage(from, payload.Flatten());
      }
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
  auto text = r.ReadStringView();
  auto claimed = torcrypto::ReadDigest(r);
  auto sig = torcrypto::ReadSignature(r);
  if (!text.ok() || !claimed.ok() || !sig.ok()) {
    return;
  }
  HeldText held = Hold(*text);
  if (held.digest != *claimed) {
    log().Warn(now(), "Document digest mismatch from " + std::to_string(from));
    return;
  }
  if (sig->signer != from || !directory_->Verify(EntryPayload(from, held.digest), *sig)) {
    log().Warn(now(), "Bad document signature from " + std::to_string(from));
    return;
  }
  // Admission: the sender signed these exact bytes, so all reject reasons are
  // attributable to `from` directly.
  tordir::VoteAdmission admission =
      Admit(*held.text, &held.digest, from, torproto::StaleBlame::kCulprit,
            "Rejecting document from " + std::to_string(from));
  if (!admission.status.ok()) {
    return;
  }
  Observe(from, admission);
  StoreDocument(from, std::move(held.text), held.digest, *sig);
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
  MaybeSendProposal();
}

void IcpsAuthority::OnDisseminationTimeout() {
  dissemination_timed_out_ = true;
  MaybeSendProposal();
}

void IcpsAuthority::MaybeSendProposal() {
  const uint32_t quorum = node_count() - torbft::FaultToleranceOf(node_count());
  const bool have_all = documents_.size() == node_count();
  const bool have_quorum_after_timeout = dissemination_timed_out_ && documents_.size() >= quorum;
  if (proposal_sent_ || (!have_all && !have_quorum_after_timeout)) {
    return;
  }
  proposal_sent_ = true;

  const Proposal proposal = BuildOwnProposal();
  proposals_[id()] = proposal;
  torbase::Writer w;
  w.WriteU8(kProposal);
  proposal.Encode(w);
  log().Info(now(), "Sending PROPOSAL (" + std::to_string(documents_.size()) + " of " +
                        std::to_string(node_count()) + " documents).");
  SendToAllOthers(kKindProposal, w.TakeBuffer());
  if (agreement_.has_value()) {
    agreement_->NotifyProposalReady();
  }
}

Proposal IcpsAuthority::BuildOwnProposal() const {
  Proposal proposal;
  proposal.proposer = id();
  proposal.entries.resize(node_count());
  for (torbase::NodeId j = 0; j < node_count(); ++j) {
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
  if (proposal->proposer != from || !proposal->Verify(*directory_, node_count())) {
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
      BuildCertifiedVector(proposals_, node_count(), torbft::FaultToleranceOf(node_count()));
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
  return vector->Verify(*directory_, node_count(), torbft::FaultToleranceOf(node_count()));
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
  log().Notice(now(), "Agreement reached on digest vector (" +
                          std::to_string(outcome_.vector_non_empty) + " of " +
                          std::to_string(node_count()) + " documents included).");
  RequestMissingDocuments();
  MaybeFinishAggregation();
}

void IcpsAuthority::RequestMissingDocuments() {
  for (torbase::NodeId j = 0; j < node_count(); ++j) {
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
  auto wanted = torcrypto::ReadDigest(r);
  if (!j.ok() || !wanted.ok()) {
    return;
  }
  auto it = documents_.find(*j);
  if (it == documents_.end()) {
    return;
  }
  if (it->second.digest != *wanted) {
    return;  // we hold a different version; not useful
  }
  torbase::Writer w;
  w.WriteU8(kDocResponse);
  w.WriteU32(*j);
  w.WriteShared(it->second.text);
  torcrypto::WriteSignature(w, it->second.sender_sig);
  SendTo(from, kKindDocFetch, w.TakeFrame());
}

void IcpsAuthority::HandleDocResponse(torbase::NodeId, torbase::Reader& r) {
  auto j = r.ReadU32();
  auto text = r.ReadStringView();
  auto sig = torcrypto::ReadSignature(r);
  if (!j.ok() || !text.ok() || !sig.ok()) {
    return;
  }
  if (pending_fetches_.count(*j) == 0 || !agreed_vector_.has_value()) {
    return;  // duplicate or unsolicited
  }
  const VectorEntry& entry = agreed_vector_->entries[*j];
  HeldText held = Hold(*text);
  if (!entry.digest.has_value() || held.digest != *entry.digest) {
    return;  // wrong document
  }
  if (sig->signer != *j || !directory_->Verify(EntryPayload(*j, held.digest), *sig)) {
    return;
  }
  // Same admission as the direct dissemination path: a certified-but-faulty
  // document (only possible past the fault tolerance) must still not enter
  // aggregation.
  tordir::VoteAdmission admission =
      Admit(*held.text, &held.digest, *j, torproto::StaleBlame::kCulprit,
            "Rejecting fetched document for " + std::to_string(*j));
  if (!admission.status.ok()) {
    return;
  }
  Observe(*j, admission);
  documents_[*j] = ReceivedDoc{held.digest, std::move(held.text), *sig};
  pending_fetches_.erase(*j);
  MaybeFinishAggregation();
}

void IcpsAuthority::MaybeFinishAggregation() {
  if (!agreed_vector_.has_value() || outcome_.computed_consensus || !pending_fetches_.empty()) {
    return;
  }
  // All agreed documents present: aggregate exactly the non-⟂ entries. The
  // agreed digests are the canonical workload votes in the honest runs, so
  // the cache turns this into pointer lookups; a miss reuses the cell's
  // parse of that text.
  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  votes.reserve(agreed_vector_->entries.size());
  for (torbase::NodeId j = 0; j < node_count(); ++j) {
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
  const torcrypto::Signature sig = ComputeConsensus(votes, outcome_);
  log().Notice(now(), "Consensus computed from " + std::to_string(votes.size()) +
                          " documents (" + std::to_string(outcome_.consensus->relays.size()) +
                          " relays); broadcasting signature.");
  PublishOnMajority();
  // Replay signatures that arrived before we finished aggregating.
  std::vector<torcrypto::Signature> pending;
  pending.swap(pending_consensus_sigs_);
  for (const auto& early_sig : pending) {
    AcceptConsensusSig(early_sig);
  }
  torbase::Writer w;
  w.WriteU8(kConsensusSig);
  w.WriteRaw(consensus_digest()->span());
  torcrypto::WriteSignature(w, sig);
  SendToAllOthers(kKindConsensusSig, w.TakeBuffer());
}

void IcpsAuthority::HandleConsensusSig(torbase::NodeId, torbase::Reader& r) {
  auto digest = torcrypto::ReadDigest(r);
  auto sig = torcrypto::ReadSignature(r);
  if (!digest.ok() || !sig.ok()) {
    return;
  }
  AcceptConsensusSig(*sig);
}

void IcpsAuthority::AcceptConsensusSig(const torcrypto::Signature& sig) {
  if (!outcome_.computed_consensus) {
    // Peers that finished aggregation first may sign before we do; keep their
    // signatures until our own consensus digest exists.
    pending_consensus_sigs_.push_back(sig);
    return;
  }
  AcceptSignature(sig, outcome_);
  PublishOnMajority();
}

void IcpsAuthority::PublishOnMajority() {
  if (!outcome_.valid_consensus && outcome_.finished_at != torbase::kTimeNever) {
    Publish(outcome_);
  }
}

}  // namespace toricc
