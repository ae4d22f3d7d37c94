#include "src/protocols/sync/sync_authority.h"

#include <algorithm>

#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"

namespace torproto {
namespace {

constexpr const char* kKindPropose = "SYNC_PROPOSE";
constexpr const char* kKindPacked = "SYNC_PACKED";
constexpr const char* kKindDs = "SYNC_DS";
constexpr const char* kKindSig = "SYNC_SIG";

}  // namespace

SyncAuthority::SyncAuthority(const ProtocolConfig& config,
                             const torcrypto::KeyDirectory* directory,
                             AuthorityMaterials materials)
    : AuthorityCore(directory, std::move(materials)), config_(config) {}

void SyncAuthority::Start() {
  lists_[id()] = own_vote_text_;
  const Duration r = config_.round_length;
  BeginProposePhase();
  SetTimer(r, [this] { BeginVotePhase(); });
  SetTimer(2 * r, [this] { BeginSynchronizePhase(); });
  for (uint32_t round = 1; round <= kDsRounds; ++round) {
    SetTimer(2 * r + round * (r / kDsRounds), [this, round] { DsRoundBoundary(round); });
  }
  SetTimer(3 * r, [this] { BeginSignaturePhase(); });
  SetTimer(4 * r, [this] { Finish(); });
}

void SyncAuthority::BeginProposePhase() {
  log().Notice(now(), "Propose round: sending relay list.");
  BroadcastVote(kKindPropose, [](torbase::Writer& w, const std::string& text, bool) {
    w.Reserve(text.size() + 16);
    w.WriteU8(kProposePost);
    w.WriteString(text);
  });
}

void SyncAuthority::HandleProposePost(NodeId from, torbase::Reader& r) {
  auto text = r.ReadString();
  if (!text.ok()) {
    return;
  }
  if (vote_phase_started_) {
    log().Info(now(), "Relay list from " + std::to_string(from) + " arrived after the "
                      "propose round; ignored.");
    return;
  }
  if (lists_.count(from) > 0) {
    return;
  }
  // Admission shares the workload's canonical text on a digest match instead
  // of retaining a private multi-megabyte copy per peer; misses are parsed,
  // canonicality-checked and validity-window-checked before the list may
  // enter a packed vote.
  tordir::VoteAdmission admission =
      Admit(*text, nullptr, from, StaleBlame::kCulprit,
            "Rejecting relay list from " + std::to_string(from));
  if (!admission.status.ok()) {
    return;
  }
  if (admission.document->authority != from) {
    log().Warn(now(), "Relay list from " + std::to_string(from) +
                          " claims another author; ignored.");
    return;
  }
  Observe(from, admission);
  lists_[from] = std::move(admission.text);
  if (lists_.size() == node_count() &&
      outcome_.all_lists_received_at == torbase::kTimeNever) {
    outcome_.all_lists_received_at = now();
  }
}

void SyncAuthority::BeginVotePhase() {
  vote_phase_started_ = true;
  log().Notice(now(), "Vote round: packing " + std::to_string(lists_.size()) +
                          " lists into a vote.");
  // Serialize the packed vote: every list we received, tagged by author. The
  // packer's identity is part of the document (real packed votes are signed by
  // their author), so two authorities' packed votes never collide.
  size_t packed_bytes = 16;
  for (const auto& [author, text] : lists_) {
    packed_bytes += text->size() + 8;
  }
  torbase::Writer packed;
  packed.Reserve(packed_bytes);
  packed.WriteU32(id());
  packed.WriteU32(static_cast<uint32_t>(lists_.size()));
  for (const auto& [author, text] : lists_) {
    packed.WriteU32(author);
    packed.WriteString(*text);
  }
  const std::string packed_text = torbase::StringOfBytes(packed.buffer());
  const auto digest = torcrypto::Digest256::Of(packed_text);
  packed_votes_[id()] = packed_text;
  packed_by_digest_[digest] = id();

  torbase::Writer w;
  w.Reserve(packed_text.size() + 16);
  w.WriteU8(kPackedVote);
  w.WriteU32(id());
  w.WriteString(packed_text);
  SendToAllOthers(kKindPacked, w.buffer());
}

void SyncAuthority::HandlePackedVote(NodeId from, torbase::Reader& r) {
  auto author = r.ReadU32();
  auto text = r.ReadString();
  if (!author.ok() || !text.ok() || *author != from) {
    return;
  }
  if (ds_started_) {
    log().Info(now(), "Packed vote from " + std::to_string(from) +
                          " arrived after the vote round; ignored.");
    return;
  }
  if (packed_votes_.count(from) > 0) {
    return;
  }
  const auto digest = torcrypto::Digest256::Of(*text);
  packed_votes_[from] = std::move(*text);
  packed_by_digest_[digest] = from;
  if (packed_votes_.size() == node_count() &&
      outcome_.all_packed_received_at == torbase::kTimeNever) {
    outcome_.all_packed_received_at = now();
  }
}

torbase::Bytes SyncAuthority::DsPayload(const torcrypto::Digest256& digest) const {
  torbase::Writer w;
  w.WriteString("sync-ds");
  w.WriteRaw(digest.span());
  return w.TakeBuffer();
}

void SyncAuthority::BeginSynchronizePhase() {
  ds_started_ = true;
  log().Notice(now(), "Synchronize rounds: Dolev-Strong over the designated sender's vote.");
  if (id() != kDesignatedSender) {
    return;
  }
  auto it = packed_votes_.find(id());
  if (it == packed_votes_.end()) {
    return;
  }
  const auto digest = torcrypto::Digest256::Of(it->second);
  extracted_.insert(digest);
  chains_[digest] = {signer_.Sign(DsPayload(digest))};
  relayed_.insert(digest);
  torbase::Writer w;
  w.WriteU8(kDsRelay);
  w.WriteRaw(digest.span());
  w.WriteU32(1);
  w.WriteU32(chains_[digest][0].signer);
  w.WriteRaw(chains_[digest][0].bytes);
  SendToAllOthers(kKindDs, w.buffer());
}

void SyncAuthority::HandleDsRelay(NodeId, torbase::Reader& r) {
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  auto count = r.ReadU32();
  if (!digest_raw.ok() || !count.ok() || *count == 0 || *count > node_count()) {
    return;
  }
  std::array<uint8_t, torcrypto::kSha256DigestSize> digest_bytes;
  std::copy(digest_raw->begin(), digest_raw->end(), digest_bytes.begin());
  const torcrypto::Digest256 digest(digest_bytes);

  std::vector<torcrypto::Signature> chain;
  std::set<NodeId> signers;
  const torbase::Bytes payload = DsPayload(digest);
  for (uint32_t i = 0; i < *count; ++i) {
    auto signer = r.ReadU32();
    auto sig_raw = r.ReadRaw(64);
    if (!signer.ok() || !sig_raw.ok()) {
      return;
    }
    torcrypto::Signature sig;
    sig.signer = *signer;
    std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
    if (!directory_->Verify(payload, sig)) {
      return;  // broken chain
    }
    chain.push_back(sig);
    signers.insert(sig.signer);
  }
  // A valid chain must originate at the designated sender and have distinct
  // signers.
  if (signers.count(kDesignatedSender) == 0 || signers.size() != chain.size()) {
    return;
  }
  if (extracted_.count(digest) > 0) {
    return;  // already accepted
  }
  extracted_.insert(digest);
  // Extend the chain with our signature; relayed at the next round boundary.
  chain.push_back(signer_.Sign(payload));
  chains_[digest] = std::move(chain);
}

void SyncAuthority::DsRoundBoundary(uint32_t round) {
  (void)round;
  // Forward any accepted-but-not-yet-relayed values.
  for (const auto& [digest, chain] : chains_) {
    if (relayed_.count(digest) > 0) {
      continue;
    }
    relayed_.insert(digest);
    torbase::Writer w;
    w.WriteU8(kDsRelay);
    w.WriteRaw(digest.span());
    w.WriteU32(static_cast<uint32_t>(chain.size()));
    for (const auto& sig : chain) {
      w.WriteU32(sig.signer);
      w.WriteRaw(sig.bytes);
    }
    SendToAllOthers(kKindDs, w.buffer());
  }
}

void SyncAuthority::BeginSignaturePhase() {
  log().Notice(now(), "Signature round: computing consensus from the agreed vote.");
  if (extracted_.size() != 1) {
    log().Warn(now(), "Dolev-Strong produced " + std::to_string(extracted_.size()) +
                          " values; no unique agreed vote.");
    return;
  }
  const torcrypto::Digest256 digest = *extracted_.begin();
  auto by_digest = packed_by_digest_.find(digest);
  if (by_digest == packed_by_digest_.end()) {
    log().Warn(now(), "Agreed packed vote contents never arrived.");
    return;
  }
  outcome_.decided = true;
  outcome_.decided_at = now();

  // Unpack the agreed vote's lists and aggregate.
  const std::string& packed_text = packed_votes_.at(by_digest->second);
  const torbase::Bytes packed_bytes = torbase::BytesOfString(packed_text);
  torbase::Reader r(packed_bytes);
  auto packer = r.ReadU32();
  auto count = r.ReadU32();
  if (!packer.ok() || !count.ok() || *count > node_count()) {
    return;
  }
  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  for (uint32_t i = 0; i < *count; ++i) {
    auto author = r.ReadU32();
    auto text = r.ReadString();
    if (!author.ok() || !text.ok()) {
      return;
    }
    // Agreed lists are usually the authorities' canonical vote bytes, so the
    // workload cache spares us the ParseVote. The packed vote may still carry
    // a faulty list — the packer's *own* (everything else it packed already
    // passed its propose-time admission) — so unpacking re-admits each entry
    // and drops (and records) what fails. The author tag is sound for
    // attribution here: only the packer itself can smuggle its own bytes in
    // under its own tag.
    tordir::VoteAdmission admission =
        Admit(*text, nullptr, *author, StaleBlame::kAuthor,
              "Agreed vote carries a rejected list from " + std::to_string(*author));
    if (!admission.status.ok()) {
      continue;
    }
    if (admission.document->authority == *author) {
      votes.push_back(std::move(admission.document));
    }
  }
  outcome_.lists_in_agreed_vote = static_cast<uint32_t>(votes.size());
  if (votes.size() < config_.MajorityThreshold()) {
    log().Warn(now(), "Agreed vote has only " + std::to_string(votes.size()) +
                          " lists; not enough to compute a consensus.");
    return;
  }
  std::vector<const tordir::VoteDocument*> vote_ptrs;
  vote_ptrs.reserve(votes.size());
  for (const auto& vote : votes) {
    vote_ptrs.push_back(vote.get());
  }
  outcome_.consensus = tordir::ComputeConsensus(vote_ptrs, config_.aggregation);
  outcome_.computed_consensus = true;
  consensus_digest_ = tordir::ConsensusDigest(outcome_.consensus);

  const torcrypto::Signature sig = signer_.Sign(consensus_digest_->span());
  signatures_.emplace(id(), sig);
  torbase::Writer w;
  w.WriteU8(kSigPost);
  w.WriteRaw(consensus_digest_->span());
  w.WriteU32(sig.signer);
  w.WriteRaw(sig.bytes);
  SendToAllOthers(kKindSig, w.buffer());
}

void SyncAuthority::HandleSigPost(NodeId, torbase::Reader& r) {
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  auto signer = r.ReadU32();
  auto sig_raw = r.ReadRaw(64);
  if (!digest_raw.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  if (!consensus_digest_.has_value() || *signer >= node_count() ||
      signatures_.count(*signer) > 0) {
    return;
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  if (!directory_->Verify(consensus_digest_->span(), sig)) {
    return;
  }
  signatures_.emplace(*signer, sig);
  if (signatures_.size() >= config_.MajorityThreshold() &&
      outcome_.finished_at == torbase::kTimeNever) {
    outcome_.finished_at = now();
  }
}

void SyncAuthority::Finish() {
  finished_ = true;
  if (outcome_.computed_consensus && signatures_.size() >= config_.MajorityThreshold()) {
    outcome_.valid_consensus = true;
    for (const auto& [signer, sig] : signatures_) {
      outcome_.consensus.signatures.push_back(sig);
    }
    log().Notice(now(), "Consensus valid with " + std::to_string(signatures_.size()) +
                            " signatures.");
  } else {
    log().Warn(now(), "No valid consensus this period.");
  }
}

void SyncAuthority::OnMessage(NodeId from, const torbase::Bytes& payload) {
  torbase::Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) {
    return;
  }
  switch (*type) {
    case kProposePost:
      HandleProposePost(from, r);
      break;
    case kPackedVote:
      HandlePackedVote(from, r);
      break;
    case kDsRelay:
      HandleDsRelay(from, r);
      break;
    case kSigPost:
      HandleSigPost(from, r);
      break;
    default:
      break;
  }
}

}  // namespace torproto
