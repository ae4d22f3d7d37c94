#include "src/consensus/hotstuff.h"

#include <algorithm>

namespace torbft {
namespace {

// Pacemaker: view v runs for 20 s + (v - 1) * 5 s, capped at 60 s.
constexpr Duration kViewTimeoutBase = torbase::Seconds(20);
constexpr Duration kViewTimeoutStep = torbase::Seconds(5);
constexpr Duration kViewTimeoutCap = torbase::Seconds(60);

torcrypto::Digest256 DigestOf(const Bytes& value) { return torcrypto::Digest256::Of(value); }

}  // namespace

HotStuffNode::HotStuffNode(NodeId id, const HotStuffConfig& config,
                           const torcrypto::KeyDirectory* directory, Callbacks callbacks)
    : id_(id),
      config_(config),
      directory_(directory),
      signer_(directory->SignerFor(id)),
      callbacks_(std::move(callbacks)),
      log_("hotstuff" + std::to_string(id)) {}

void HotStuffNode::Start() { EnterView(1); }

Duration HotStuffNode::TimeoutFor(View view) const {
  const Duration grown = kViewTimeoutBase + (view > 0 ? (view - 1) * kViewTimeoutStep : 0);
  return std::min(grown, kViewTimeoutCap);
}

void HotStuffNode::EnterView(View view) {
  if (decided_value_.has_value() || view <= current_view_) {
    return;
  }
  current_view_ = view;
  proposed_this_view_ = false;
  sent_precommit_ = false;
  sent_commit_ = false;
  sent_decide_ = false;
  if (view_timer_ != torsim::kNoEvent) {
    callbacks_.cancel_timer(view_timer_);
  }
  view_timer_ = callbacks_.set_timer(TimeoutFor(view), [this, view] { OnViewTimeout(view); });

  // Announce the view to its leader, carrying our highest prepare QC.
  torbase::Writer w;
  w.WriteU8(kNewView);
  w.WriteU64(view);
  EncodeOptionalQc(w, prepare_qc_);
  callbacks_.send(LeaderOf(view), w.TakeBuffer());

  if (LeaderOf(view) == id_) {
    MaybePropose();
  }
}

void HotStuffNode::OnViewTimeout(View view) {
  if (decided_value_.has_value() || view != current_view_) {
    return;
  }
  log_.Info(callbacks_.now(), "view " + std::to_string(view) + " timed out");
  EnterView(view + 1);
}

void HotStuffNode::MaybePropose() {
  if (decided_value_.has_value() || proposed_this_view_ || LeaderOf(current_view_) != id_) {
    return;
  }
  // Views beyond the first need (n - f) NEW_VIEW messages so the leader is
  // guaranteed to know the highest prepare QC any correct node saw.
  std::optional<QuorumCert> high_qc = prepare_qc_;
  if (current_view_ > 1) {
    const auto it = new_views_.find(current_view_);
    if (it == new_views_.end() || it->second.size() < config_.Quorum()) {
      return;
    }
    for (const auto& [node, qc] : it->second) {
      if (qc.has_value() && (!high_qc.has_value() || qc->view > high_qc->view)) {
        high_qc = qc;
      }
    }
  }

  Bytes value;
  if (high_qc.has_value()) {
    // Single-shot safety: once any value has a prepare QC, leaders re-propose
    // that value.
    auto it = values_.find(high_qc->digest);
    if (it == values_.end()) {
      // We never saw the value behind the QC; wait for a leader that did.
      return;
    }
    value = it->second;
  } else {
    auto proposal = callbacks_.get_proposal();
    if (!proposal.has_value()) {
      // Dissemination not ready; the pacemaker will move on if this takes too
      // long (§5.2.1: the leader waits for more PROPOSAL messages).
      return;
    }
    value = std::move(*proposal);
  }

  proposed_this_view_ = true;
  CacheValue(value);
  log_.Info(callbacks_.now(),
            "proposing in view " + std::to_string(current_view_) + " (" +
                std::to_string(value.size()) + " bytes)");
  torbase::Writer w;
  w.WriteU8(kPrepare);
  w.WriteU64(current_view_);
  w.WriteBytes(value);
  EncodeOptionalQc(w, high_qc);
  BroadcastToAll(w.TakeBuffer());
}

void HotStuffNode::BroadcastToAll(const Bytes& message) {
  for (NodeId node = 0; node < config_.node_count; ++node) {
    callbacks_.send(node, message);
  }
}

void HotStuffNode::NotifyProposalReady() { MaybePropose(); }

bool HotStuffNode::OnMessage(NodeId from, const Bytes& payload) {
  torbase::Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok() || *type < kNewView || *type > kDecide) {
    return false;
  }
  if (decided_value_.has_value() && *type != kNewView) {
    return true;  // already done; stragglers are served on NEW_VIEW below
  }
  switch (static_cast<MessageType>(*type)) {
    case kNewView:
      HandleNewView(from, r);
      break;
    case kPrepare:
      HandlePrepare(from, r);
      break;
    case kPrepareVote:
    case kPreCommitVote:
    case kCommitVote:
      HandleVote(from, static_cast<MessageType>(*type), r);
      break;
    case kPreCommit:
      HandlePreCommit(from, r);
      break;
    case kCommit:
      HandleCommit(from, r);
      break;
    case kDecide:
      HandleDecide(from, r);
      break;
  }
  return true;
}

void HotStuffNode::HandleNewView(NodeId from, torbase::Reader& r) {
  auto view = r.ReadU64();
  auto qc = DecodeOptionalQc(r);
  if (!view.ok() || !qc.ok()) {
    return;
  }
  if (qc->has_value() &&
      !((*qc)->phase == Phase::kPrepare && (*qc)->Verify(*directory_, config_.Quorum()))) {
    return;  // forged or wrong-phase QC
  }
  if (decided_value_.has_value()) {
    // Serve stragglers: re-send the decision.
    torbase::Writer w;
    w.WriteU8(kDecide);
    w.WriteU64(current_view_);
    w.WriteBytes(*decided_value_);
    EncodeOptionalQc(w, decide_qc_);
    callbacks_.send(from, w.TakeBuffer());
    return;
  }
  if (qc->has_value() && (!prepare_qc_.has_value() || (*qc)->view > prepare_qc_->view)) {
    prepare_qc_ = *qc;
  }
  new_views_[*view][from] = *qc;
  if (*view == current_view_ && LeaderOf(current_view_) == id_) {
    MaybePropose();
  }
}

void HotStuffNode::HandlePrepare(NodeId from, torbase::Reader& r) {
  auto view = r.ReadU64();
  auto value = r.ReadBytes();
  auto high_qc = DecodeOptionalQc(r);
  if (!view.ok() || !value.ok() || !high_qc.ok()) {
    return;
  }
  if (*view < current_view_ || from != LeaderOf(*view)) {
    return;
  }
  const torcrypto::Digest256 digest = DigestOf(*value);
  if (high_qc->has_value()) {
    const QuorumCert& qc = **high_qc;
    if (qc.phase != Phase::kPrepare || qc.digest != digest ||
        !qc.Verify(*directory_, config_.Quorum())) {
      return;  // leader must re-propose exactly the QC'd value
    }
  } else {
    if (!callbacks_.validate(*value)) {
      log_.Warn(callbacks_.now(), "rejecting invalid proposal in view " + std::to_string(*view));
      return;
    }
  }
  // Safety rule: respect the lock unless shown a newer prepare QC.
  if (locked_qc_.has_value() && locked_qc_->digest != digest) {
    if (!high_qc->has_value() || (*high_qc)->view <= locked_qc_->view) {
      return;
    }
  }
  // Catch up to the leader's view if we lag.
  if (*view > current_view_) {
    EnterView(*view);
  }
  if (voted_.count({static_cast<uint8_t>(Phase::kPrepare), *view}) > 0) {
    return;
  }
  voted_.insert({static_cast<uint8_t>(Phase::kPrepare), *view});
  CacheValue(*value);
  SendVote(Phase::kPrepare, *view, digest, from);
}

void HotStuffNode::SendVote(Phase phase, View view, const torcrypto::Digest256& digest,
                            NodeId leader) {
  const torcrypto::Signature sig = signer_.Sign(VotePayload(phase, view, digest));
  torbase::Writer w;
  switch (phase) {
    case Phase::kPrepare:
      w.WriteU8(kPrepareVote);
      break;
    case Phase::kPreCommit:
      w.WriteU8(kPreCommitVote);
      break;
    case Phase::kCommit:
      w.WriteU8(kCommitVote);
      break;
  }
  w.WriteU64(view);
  w.WriteRaw(digest.span());
  torcrypto::WriteSignature(w, sig);
  callbacks_.send(leader, w.TakeBuffer());
}

void HotStuffNode::HandleVote(NodeId from, MessageType type, torbase::Reader& r) {
  auto view = r.ReadU64();
  auto digest_read = torcrypto::ReadDigest(r);
  auto sig = torcrypto::ReadSignature(r);
  if (!view.ok() || !digest_read.ok() || !sig.ok()) {
    return;
  }
  if (*view != current_view_ || LeaderOf(*view) != id_ || sig->signer != from) {
    return;
  }
  const torcrypto::Digest256& digest = *digest_read;

  Phase phase;
  switch (type) {
    case kPrepareVote:
      phase = Phase::kPrepare;
      break;
    case kPreCommitVote:
      phase = Phase::kPreCommit;
      break;
    case kCommitVote:
      phase = Phase::kCommit;
      break;
    default:
      return;
  }
  if (!directory_->Verify(VotePayload(phase, *view, digest), *sig)) {
    return;
  }
  auto& vote_set = votes_[{static_cast<uint8_t>(phase), *view, digest}];
  vote_set.sigs[from] = *sig;
  if (vote_set.sigs.size() < config_.Quorum()) {
    return;
  }

  // Assemble the QC and drive the next phase (once per phase per view).
  QuorumCert qc;
  qc.phase = phase;
  qc.view = *view;
  qc.digest = digest;
  for (const auto& [node, s] : vote_set.sigs) {
    qc.signatures.push_back(s);
  }

  torbase::Writer w;
  switch (phase) {
    case Phase::kPrepare: {
      if (sent_precommit_) {
        return;
      }
      sent_precommit_ = true;
      // Two-phase mode: the prepare QC is strong enough to lock on; broadcast
      // COMMIT directly and skip the pre-commit round-trip.
      w.WriteU8(config_.two_phase ? kCommit : kPreCommit);
      w.WriteU64(*view);
      qc.Encode(w);
      BroadcastToAll(w.TakeBuffer());
      break;
    }
    case Phase::kPreCommit: {
      if (sent_commit_) {
        return;
      }
      sent_commit_ = true;
      w.WriteU8(kCommit);
      w.WriteU64(*view);
      qc.Encode(w);
      BroadcastToAll(w.TakeBuffer());
      break;
    }
    case Phase::kCommit: {
      if (sent_decide_) {
        return;
      }
      sent_decide_ = true;
      auto it = values_.find(digest);
      if (it == values_.end()) {
        return;
      }
      w.WriteU8(kDecide);
      w.WriteU64(*view);
      w.WriteBytes(it->second);
      decide_qc_ = qc;
      EncodeOptionalQc(w, decide_qc_);
      BroadcastToAll(w.TakeBuffer());
      break;
    }
  }
}

void HotStuffNode::HandlePreCommit(NodeId from, torbase::Reader& r) {
  auto view = r.ReadU64();
  auto qc = QuorumCert::Decode(r);
  if (!view.ok() || !qc.ok()) {
    return;
  }
  if (from != LeaderOf(*view) || *view < current_view_) {
    return;
  }
  if (qc->phase != Phase::kPrepare || qc->view != *view ||
      !qc->Verify(*directory_, config_.Quorum())) {
    return;
  }
  if (*view > current_view_) {
    EnterView(*view);
  }
  if (!prepare_qc_.has_value() || qc->view > prepare_qc_->view) {
    prepare_qc_ = *qc;
  }
  if (voted_.count({static_cast<uint8_t>(Phase::kPreCommit), *view}) > 0) {
    return;
  }
  voted_.insert({static_cast<uint8_t>(Phase::kPreCommit), *view});
  SendVote(Phase::kPreCommit, *view, qc->digest, from);
}

void HotStuffNode::HandleCommit(NodeId from, torbase::Reader& r) {
  auto view = r.ReadU64();
  auto qc = QuorumCert::Decode(r);
  if (!view.ok() || !qc.ok()) {
    return;
  }
  if (from != LeaderOf(*view) || *view < current_view_) {
    return;
  }
  // 3-phase COMMIT carries a pre-commit QC; 2-phase carries the prepare QC.
  const Phase expected = config_.two_phase ? Phase::kPrepare : Phase::kPreCommit;
  if (qc->phase != expected || qc->view != *view ||
      !qc->Verify(*directory_, config_.Quorum())) {
    return;
  }
  if (config_.two_phase && (!prepare_qc_.has_value() || qc->view > prepare_qc_->view)) {
    prepare_qc_ = *qc;  // the prepare QC arrives via COMMIT in this mode
  }
  if (*view > current_view_) {
    EnterView(*view);
  }
  locked_qc_ = *qc;  // the lock
  if (voted_.count({static_cast<uint8_t>(Phase::kCommit), *view}) > 0) {
    return;
  }
  voted_.insert({static_cast<uint8_t>(Phase::kCommit), *view});
  SendVote(Phase::kCommit, *view, qc->digest, from);
}

void HotStuffNode::HandleDecide(NodeId from, torbase::Reader& r) {
  auto view = r.ReadU64();
  auto value = r.ReadBytes();
  auto qc = DecodeOptionalQc(r);
  (void)from;
  if (!view.ok() || !value.ok() || !qc.ok() || !qc->has_value()) {
    return;
  }
  const QuorumCert& cert = **qc;
  if (cert.phase != Phase::kCommit || !cert.Verify(*directory_, config_.Quorum())) {
    return;
  }
  if (cert.digest != DigestOf(*value)) {
    return;
  }
  decide_qc_ = cert;
  Decide(*value);
}

void HotStuffNode::Decide(const Bytes& value) {
  if (decided_value_.has_value()) {
    return;
  }
  decided_value_ = value;
  if (view_timer_ != torsim::kNoEvent) {
    callbacks_.cancel_timer(view_timer_);
    view_timer_ = torsim::kNoEvent;
  }
  log_.Info(callbacks_.now(), "decided in view " + std::to_string(current_view_));
  callbacks_.on_decide(value);
}

void HotStuffNode::CacheValue(const Bytes& value) { values_[DigestOf(value)] = value; }

}  // namespace torbft
