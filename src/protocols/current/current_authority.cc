#include "src/protocols/current/current_authority.h"

#include <algorithm>

#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"

namespace torproto {
namespace {

constexpr const char* kKindVote = "VOTE";
constexpr const char* kKindVoteFetch = "VOTE_FETCH";
constexpr const char* kKindSig = "SIG";
constexpr const char* kKindSigFetch = "SIG_FETCH";

}  // namespace

CurrentAuthority::CurrentAuthority(const ProtocolConfig& config,
                                   const torcrypto::KeyDirectory* directory,
                                   AuthorityMaterials materials)
    : AuthorityCore(directory, std::move(materials)), config_(config) {}

void CurrentAuthority::Start() {
  votes_[id()] = own_vote_;
  vote_texts_[id()] = own_vote_text_;

  const Duration r = config_.round_length;
  BeginVoteRound();
  SetTimer(r, [this] { BeginFetchVotesRound(); });
  SetTimer(2 * r, [this] { BeginComputeRound(); });
  SetTimer(3 * r, [this] { BeginFetchSignaturesRound(); });
  SetTimer(4 * r, [this] { Finish(); });
}

void CurrentAuthority::BeginVoteRound() {
  log().Notice(now(), "Time to vote.");
  BroadcastVote(kKindVote, [this](torbase::Writer& w, const std::string& text, bool) {
    w.Reserve(text.size() + 32);
    w.WriteU8(kVotePost);
    w.WriteU64(now());  // posted_at
    w.WriteString(text);
  });
}

void CurrentAuthority::BeginFetchVotesRound() {
  log().Notice(now(), "Time to fetch any votes that we're missing.");
  std::vector<NodeId> missing;
  for (NodeId a = 0; a < node_count(); ++a) {
    if (votes_.count(a) == 0) {
      missing.push_back(a);
    }
  }
  if (missing.empty()) {
    return;
  }
  std::string fp_list;
  for (NodeId a : missing) {
    if (!fp_list.empty()) {
      fp_list += ' ';
    }
    // Authorities are identified by fingerprints in the real log (Figure 1);
    // render a deterministic per-authority fingerprint.
    fp_list += tordir::FingerprintHex(
        [a] {
          tordir::Fingerprint fp;
          fp.fill(static_cast<uint8_t>(0xA0 + a));
          return fp;
        }());
  }
  log().Notice(now(), "We're missing votes from " + std::to_string(missing.size()) +
                          " authorities (" + fp_list +
                          "). Asking every other authority for a copy.");

  torbase::Writer w;
  w.WriteU8(kVoteRequest);
  w.WriteU64(now());  // request time
  w.WriteU32(static_cast<uint32_t>(missing.size()));
  for (NodeId a : missing) {
    w.WriteU32(a);
    outstanding_vote_fetches_.insert(a);
  }
  SendToAllOthers(kKindVoteFetch, w.buffer());

  // Log give-ups for requests still unanswered at the directory deadline,
  // matching connection_dir_client_request_failed() in Figure 1.
  SetTimer(config_.dir_request_deadline, [this] {
    if (outstanding_vote_fetches_.empty()) {
      return;
    }
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer != id()) {
        log().Info(now(), "connection_dir_client_request_failed(): Giving up downloading votes "
                          "from " + AuthorityAddress(peer));
      }
    }
  });
}

void CurrentAuthority::BeginComputeRound() {
  log().Notice(now(), "Time to compute a consensus.");
  outcome_.votes_held = static_cast<uint32_t>(votes_.size());
  const uint32_t majority = config_.MajorityThreshold();
  if (votes_.size() < majority) {
    log().Warn(now(), "We don't have enough votes to generate a consensus: " +
                          std::to_string(votes_.size()) + " of " + std::to_string(majority));
    return;
  }

  std::vector<const tordir::VoteDocument*> vote_ptrs;
  vote_ptrs.reserve(votes_.size());
  for (const auto& [authority, vote] : votes_) {
    vote_ptrs.push_back(vote.get());
  }
  outcome_.consensus = tordir::ComputeConsensus(vote_ptrs, config_.aggregation);
  outcome_.computed_consensus = true;
  consensus_digest_ = tordir::ConsensusDigest(outcome_.consensus);
  log().Notice(now(), "Consensus computed (" + std::to_string(outcome_.consensus.relays.size()) +
                          " relays), broadcasting signature.");

  const torcrypto::Signature sig = signer_.Sign(consensus_digest_->span());
  AcceptSignature(sig);

  torbase::Writer w;
  w.WriteU8(kSigPost);
  w.WriteU64(now());
  w.WriteRaw(consensus_digest_->span());
  w.WriteU32(sig.signer);
  w.WriteRaw(sig.bytes);
  SendToAllOthers(kKindSig, w.buffer());
}

void CurrentAuthority::BeginFetchSignaturesRound() {
  log().Notice(now(), "Time to fetch any signatures that we're missing.");
  if (!outcome_.computed_consensus) {
    return;
  }
  torbase::Writer w;
  w.WriteU8(kSigRequest);
  w.WriteU64(now());
  SendToAllOthers(kKindSigFetch, w.buffer());
}

void CurrentAuthority::Finish() {
  finished_ = true;
  outcome_.signatures_held = static_cast<uint32_t>(signatures_.size());
  const uint32_t majority = config_.MajorityThreshold();
  if (outcome_.computed_consensus && signatures_.size() >= majority) {
    outcome_.valid_consensus = true;
    if (outcome_.finished_at == torbase::kTimeNever) {
      outcome_.finished_at = now();
    }
    for (const auto& [signer, sig] : signatures_) {
      outcome_.consensus.signatures.push_back(sig);
    }
    log().Notice(now(), "Consensus valid with " + std::to_string(signatures_.size()) +
                            " signatures.");
  } else {
    log().Warn(now(), "No valid consensus this period (signatures: " +
                          std::to_string(signatures_.size()) + " of " +
                          std::to_string(majority) + ").");
  }
}

void CurrentAuthority::OnMessage(NodeId from, const torbase::Bytes& payload) {
  torbase::Reader reader(payload);
  auto type = reader.ReadU8();
  if (!type.ok()) {
    return;
  }
  switch (*type) {
    case kVotePost:
      HandleVotePost(from, reader);
      break;
    case kVoteRequest:
      HandleVoteRequest(from, reader);
      break;
    case kVoteResponse:
      HandleVoteResponse(from, reader);
      break;
    case kSigPost:
      HandleSigPost(from, reader);
      break;
    case kSigRequest:
      HandleSigRequest(from, reader);
      break;
    case kSigResponse:
      HandleSigResponse(from, reader);
      break;
    default:
      log().Warn(now(), "Unknown message type from " + std::to_string(from));
  }
}

void CurrentAuthority::HandleVotePost(NodeId from, torbase::Reader& reader) {
  auto posted_at = reader.ReadU64();
  auto text = reader.ReadString();
  if (!posted_at.ok() || !text.ok()) {
    return;
  }
  if (now() > *posted_at + config_.dir_request_deadline) {
    log().Info(now(), "Discarding stale vote transfer from " + AuthorityAddress(from));
    return;
  }
  AcceptVote(from, *text);
}

void CurrentAuthority::HandleVoteRequest(NodeId from, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  std::vector<const std::string*> served;
  for (uint32_t i = 0; i < *count; ++i) {
    auto wanted = reader.ReadU32();
    if (!wanted.ok()) {
      return;
    }
    auto it = vote_texts_.find(*wanted);
    if (it != vote_texts_.end()) {
      served.push_back(it->second.get());
    }
  }
  if (served.empty()) {
    return;
  }
  size_t payload_bytes = 32;
  for (const std::string* text : served) {
    payload_bytes += text->size() + 4;
  }
  torbase::Writer w;
  w.Reserve(payload_bytes);
  w.WriteU8(kVoteResponse);
  w.WriteU64(*request_time);
  w.WriteU32(static_cast<uint32_t>(served.size()));
  for (const std::string* text : served) {
    w.WriteString(*text);
  }
  SendTo(from, kKindVoteFetch, w.TakeBuffer());
}

void CurrentAuthority::HandleVoteResponse(NodeId, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  const bool on_time = now() <= *request_time + config_.dir_request_deadline;
  for (uint32_t i = 0; i < *count; ++i) {
    auto text = reader.ReadString();
    if (!text.ok()) {
      return;
    }
    if (on_time) {
      // Relayed text: the wire sender is an honest middleman, not the author,
      // so malformed bytes are unattributable here.
      AcceptVote(torbase::kNoNode, *text);
    }
  }
}

void CurrentAuthority::AcceptVote(NodeId culprit, const std::string& text) {
  tordir::VoteAdmission admission =
      Admit(text, nullptr, culprit, StaleBlame::kAuthor, "Rejecting unparseable vote");
  if (!admission.status.ok()) {
    return;
  }
  const NodeId authority = admission.document->authority;
  if (authority >= node_count() || votes_.count(authority) > 0) {
    return;  // out of range or duplicate
  }
  if (authority != id()) {
    Observe(authority, admission);
  }
  votes_.emplace(authority, std::move(admission.document));
  vote_texts_.emplace(authority, std::move(admission.text));
  outstanding_vote_fetches_.erase(authority);
  MaybeRecordVoteCompletion();
}

void CurrentAuthority::MaybeRecordVoteCompletion() {
  if (votes_.size() == node_count() &&
      outcome_.all_votes_received_at == torbase::kTimeNever) {
    outcome_.all_votes_received_at = now();
  }
}

void CurrentAuthority::HandleSigPost(NodeId, torbase::Reader& reader) {
  auto posted_at = reader.ReadU64();
  auto digest_raw = reader.ReadRaw(torcrypto::kSha256DigestSize);
  auto signer = reader.ReadU32();
  auto sig_raw = reader.ReadRaw(64);
  if (!posted_at.ok() || !digest_raw.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  AcceptSignature(sig);
}

void CurrentAuthority::HandleSigRequest(NodeId from, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  if (!request_time.ok() || signatures_.empty()) {
    return;
  }
  torbase::Writer w;
  w.WriteU8(kSigResponse);
  w.WriteU64(*request_time);
  w.WriteU32(static_cast<uint32_t>(signatures_.size()));
  for (const auto& [signer, sig] : signatures_) {
    w.WriteU32(sig.signer);
    w.WriteRaw(sig.bytes);
  }
  SendTo(from, kKindSigFetch, w.TakeBuffer());
}

void CurrentAuthority::HandleSigResponse(NodeId, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  if (now() > *request_time + config_.dir_request_deadline) {
    return;
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto signer = reader.ReadU32();
    auto sig_raw = reader.ReadRaw(64);
    if (!signer.ok() || !sig_raw.ok()) {
      return;
    }
    torcrypto::Signature sig;
    sig.signer = *signer;
    std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
    AcceptSignature(sig);
  }
}

void CurrentAuthority::AcceptSignature(const torcrypto::Signature& sig) {
  if (!consensus_digest_.has_value()) {
    return;  // nothing to check against (we failed to compute)
  }
  if (sig.signer >= node_count() || signatures_.count(sig.signer) > 0) {
    return;
  }
  if (!directory_->Verify(consensus_digest_->span(), sig)) {
    // Either a forgery or a signature over a *different* consensus document;
    // both are discarded, which is what makes equivocation observable.
    log().Warn(now(), "Signature from authority " + std::to_string(sig.signer) +
                          " does not match our consensus.");
    return;
  }
  signatures_.emplace(sig.signer, sig);
  if (signatures_.size() == node_count() &&
      outcome_.all_signatures_received_at == torbase::kTimeNever) {
    outcome_.all_signatures_received_at = now();
  }
  if (signatures_.size() >= config_.MajorityThreshold() &&
      outcome_.finished_at == torbase::kTimeNever) {
    outcome_.finished_at = now();
  }
}

}  // namespace torproto
