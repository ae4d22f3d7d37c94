#include "src/protocols/sync/sync_authority.h"

#include <algorithm>

#include "src/crypto/sha256.h"

namespace torproto {
namespace {

constexpr const char* kKindPropose = "SYNC_PROPOSE";
constexpr const char* kKindPacked = "SYNC_PACKED";
constexpr const char* kKindDs = "SYNC_DS";
constexpr const char* kKindSig = "SYNC_SIG";

using SharedText = std::shared_ptr<const std::string>;

// Emits `packed`'s wire encoding in order: `u32(value)` for each integer and
// `text(shared)` for each list's length-prefixed text, both as
// torbase::Writer writes them. The frame, its length prefix and the digest
// all come from here, so they cover the same bytes.
template <typename U32, typename Text>
void EncodePacked(const PackedVote& packed, U32&& u32, Text&& text) {
  u32(packed.packer);
  u32(static_cast<uint32_t>(packed.lists.size()));
  for (const auto& [author, list] : packed.lists) {
    u32(author);
    text(list);
  }
}

// The SHA-256 of `packed`'s wire encoding, streamed once per distinct packed
// vote in `store`: the cell's, shared by every holder, or an authority's own.
const torcrypto::Digest256& DigestOf(DocumentStore& store, const PackedVote& packed) {
  return store.PackedDigest(packed.packer, packed.lists, [&packed] {
    torcrypto::Sha256 hash;
    const auto u32 = [&hash](uint32_t v) {
      const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                             static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
      hash.Update(std::string_view(bytes, sizeof(bytes)));
    };
    EncodePacked(packed, u32, [&](const SharedText& text) {
      u32(static_cast<uint32_t>(text->size()));
      hash.Update(*text);
    });
    return torcrypto::Digest256(hash.Finish());
  });
}

}  // namespace

SyncAuthority::SyncAuthority(const torcrypto::KeyDirectory* directory,
                             AuthorityMaterials materials)
    : AuthorityCore(directory, std::move(materials)) {}

void SyncAuthority::Start() {
  lists_[id()] = own_vote_text_;
  const Duration r = kRoundLength;
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
  BroadcastVote(kKindPropose, [](torbase::Writer& w, const SharedText& text, bool) {
    w.WriteU8(kProposePost);
    w.WriteShared(text);
  });
}

void SyncAuthority::HandleProposePost(NodeId from, torbase::Reader& r) {
  auto text = r.ReadStringView();
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
  // Admission shares the workload's canonical text when the bytes match it
  // instead of retaining a private multi-megabyte copy per peer; misses are
  // parsed, canonicality-checked and validity-window-checked before the list
  // may enter a packed vote.
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
  // Pack every list we received, tagged by author. The packer's identity is
  // part of the document (real packed votes are signed by their author), so
  // two authorities' packed votes never collide.
  PackedVote& packed = packed_votes_[id()];
  packed.packer = id();
  packed.lists.assign(lists_.begin(), lists_.end());
  size_t packed_size = 0;
  EncodePacked(
      packed, [&packed_size](uint32_t) { packed_size += 4; },
      [&packed_size](const SharedText& text) { packed_size += 4 + text->size(); });
  // Each list is a segment of the frame: every receiver reads the packer's
  // shared texts, which are the workload's own for canonical lists.
  torbase::Writer w;
  w.WriteU8(kPackedVote);
  w.WriteU32(id());
  w.WriteU32(static_cast<uint32_t>(packed_size));  // the encoding's length prefix
  EncodePacked(
      packed, [&w](uint32_t v) { w.WriteU32(v); },
      [&w](const SharedText& text) { w.WriteShared(text); });
  SendToAllOthers(kKindPacked, w.TakeFrame());
}

std::optional<PackedVote> SyncAuthority::DecodePacked(NodeId from, uint32_t length,
                                                      torbase::Reader& r) {
  const size_t rest = r.remaining() - length;
  auto packer = r.ReadU32();
  auto count = r.ReadU32();
  if (!packer.ok() || !count.ok() || *packer != from || *count > node_count()) {
    return std::nullopt;
  }
  PackedVote packed;
  packed.packer = *packer;
  packed.lists.reserve(*count);
  std::vector<bool> seen(node_count());
  for (uint32_t i = 0; i < *count; ++i) {
    auto author = r.ReadU32();
    auto text = r.ReadStringView();
    if (!author.ok() || !text.ok() || r.remaining() < rest || *author >= node_count() ||
        seen[*author]) {
      return std::nullopt;
    }
    seen[*author] = true;
    packed.lists.emplace_back(*author, Share(*text));
  }
  if (r.remaining() != rest) {
    return std::nullopt;
  }
  return packed;
}

void SyncAuthority::HandlePackedVote(NodeId from, torbase::Reader& r) {
  auto author = r.ReadU32();
  auto length = r.ReadU32();  // of the packed encoding that follows
  if (!author.ok() || !length.ok() || *length > r.remaining() || *author != from) {
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
  std::optional<PackedVote> packed = DecodePacked(from, *length, r);
  if (!packed.has_value()) {
    log().Warn(now(), "Malformed packed vote from " + std::to_string(from) + "; dropped.");
    return;
  }
  packed_votes_.emplace(from, std::move(*packed));
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
  const torcrypto::Digest256 digest = DigestOf(document_store(), it->second);
  extracted_.insert(digest);
  chains_[digest] = {signer_.Sign(DsPayload(digest))};
  relayed_.insert(digest);
  torbase::Writer w;
  w.WriteU8(kDsRelay);
  w.WriteRaw(digest.span());
  w.WriteU32(1);
  torcrypto::WriteSignature(w, chains_[digest][0]);
  SendToAllOthers(kKindDs, w.TakeBuffer());
}

void SyncAuthority::HandleDsRelay(NodeId, torbase::Reader& r) {
  auto digest_read = torcrypto::ReadDigest(r);
  auto count = r.ReadU32();
  if (!digest_read.ok() || !count.ok() || *count == 0 || *count > node_count()) {
    return;
  }
  const torcrypto::Digest256& digest = *digest_read;

  std::vector<torcrypto::Signature> chain;
  std::set<NodeId> signers;
  const torbase::Bytes payload = DsPayload(digest);
  for (uint32_t i = 0; i < *count; ++i) {
    auto sig = torcrypto::ReadSignature(r);
    if (!sig.ok()) {
      return;
    }
    if (!directory_->Verify(payload, *sig)) {
      return;  // broken chain
    }
    chain.push_back(*sig);
    signers.insert(sig->signer);
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
      torcrypto::WriteSignature(w, sig);
    }
    SendToAllOthers(kKindDs, w.TakeBuffer());
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
  // Find the agreed packed vote by digest. Map order checks the designated
  // sender's first, which in every run is the agreed one, so each authority
  // needs one packed vote's digest: the one the designated sender relayed,
  // which the cell's store already holds when the lists are the same texts.
  static_assert(kDesignatedSender == 0, "map order must reach the designated sender first");
  auto agreed = std::find_if(packed_votes_.begin(), packed_votes_.end(), [&](const auto& entry) {
    return DigestOf(document_store(), entry.second) == digest;
  });
  if (agreed == packed_votes_.end()) {
    log().Warn(now(), "Agreed packed vote contents never arrived.");
    return;
  }
  outcome_.decided = true;
  outcome_.decided_at = now();

  // Admit the agreed vote's lists and aggregate.
  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  for (const auto& [author, text] : agreed->second.lists) {
    // Agreed lists are usually the authorities' canonical vote bytes, so the
    // workload cache spares us the ParseVote. The packed vote may still carry
    // a faulty list — the packer's *own* (everything else it packed already
    // passed its propose-time admission) — so unpacking re-admits each entry
    // and drops (and records) what fails. The author tag is sound for
    // attribution here: only the packer itself can smuggle its own bytes in
    // under its own tag.
    tordir::VoteAdmission admission =
        Admit(*text, nullptr, author, StaleBlame::kAuthor,
              "Agreed vote carries a rejected list from " + std::to_string(author));
    if (!admission.status.ok()) {
      continue;
    }
    if (admission.document->authority == author) {
      votes.push_back(std::move(admission.document));
    }
  }
  outcome_.lists_in_agreed_vote = static_cast<uint32_t>(votes.size());
  if (votes.size() < MajorityOf(node_count())) {
    log().Warn(now(), "Agreed vote has only " + std::to_string(votes.size()) +
                          " lists; not enough to compute a consensus.");
    return;
  }
  const torcrypto::Signature sig = ComputeConsensus(votes, outcome_);
  torbase::Writer w;
  w.WriteU8(kSigPost);
  w.WriteRaw(consensus_digest()->span());
  torcrypto::WriteSignature(w, sig);
  SendToAllOthers(kKindSig, w.TakeBuffer());
}

void SyncAuthority::HandleSigPost(NodeId, torbase::Reader& r) {
  auto digest = torcrypto::ReadDigest(r);
  auto sig = torcrypto::ReadSignature(r);
  if (!digest.ok() || !sig.ok()) {
    return;
  }
  AcceptSignature(*sig, outcome_);
}

void SyncAuthority::Finish() {
  finished_ = true;
  if (outcome_.computed_consensus && signatures().size() >= MajorityOf(node_count())) {
    Publish(outcome_);
  } else {
    log().Warn(now(), "No valid consensus this period.");
  }
}

void SyncAuthority::OnMessage(NodeId from, const torbase::Frame& payload) {
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
