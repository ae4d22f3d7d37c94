#include "src/protocols/current/current_authority.h"

#include "src/tordir/dirspec.h"

namespace torproto {
namespace {

constexpr const char* kKindVote = "VOTE";
constexpr const char* kKindVoteFetch = "VOTE_FETCH";
constexpr const char* kKindSig = "SIG";
constexpr const char* kKindSigFetch = "SIG_FETCH";

}  // namespace

CurrentAuthority::CurrentAuthority(const torcrypto::KeyDirectory* directory,
                                   AuthorityMaterials materials)
    : AuthorityCore(directory, std::move(materials)) {}

void CurrentAuthority::Start() {
  votes_[id()] = own_vote_;
  vote_texts_[id()] = own_vote_text_;

  const Duration r = kRoundLength;
  BeginVoteRound();
  SetTimer(r, [this] { BeginFetchVotesRound(); });
  SetTimer(2 * r, [this] { BeginComputeRound(); });
  SetTimer(3 * r, [this] { BeginFetchSignaturesRound(); });
  SetTimer(4 * r, [this] { Finish(); });
}

void CurrentAuthority::BeginVoteRound() {
  log().Notice(now(), "Time to vote.");
  BroadcastVote(kKindVote, [this](torbase::Writer& w,
                                  const std::shared_ptr<const std::string>& text, bool) {
    w.WriteU8(kVotePost);
    w.WriteU64(now());  // posted_at
    w.WriteShared(text);
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
  SendToAllOthers(kKindVoteFetch, w.TakeBuffer());

  // Log give-ups for requests still unanswered at the directory deadline,
  // matching connection_dir_client_request_failed() in Figure 1.
  SetTimer(kDirRequestDeadline, [this] {
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
  const uint32_t majority = MajorityOf(node_count());
  if (votes_.size() < majority) {
    log().Warn(now(), "We don't have enough votes to generate a consensus: " +
                          std::to_string(votes_.size()) + " of " + std::to_string(majority));
    return;
  }

  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  votes.reserve(votes_.size());
  for (const auto& [authority, vote] : votes_) {
    votes.push_back(vote);
  }
  const torcrypto::Signature sig = ComputeConsensus(votes, outcome_);
  log().Notice(now(), "Consensus computed (" + std::to_string(outcome_.consensus->relays.size()) +
                          " relays), broadcasting signature.");

  torbase::Writer w;
  w.WriteU8(kSigPost);
  w.WriteU64(now());  // posted_at
  w.WriteRaw(consensus_digest()->span());
  torcrypto::WriteSignature(w, sig);
  SendToAllOthers(kKindSig, w.TakeBuffer());
}

void CurrentAuthority::BeginFetchSignaturesRound() {
  log().Notice(now(), "Time to fetch any signatures that we're missing.");
  if (!outcome_.computed_consensus) {
    return;
  }
  torbase::Writer w;
  w.WriteU8(kSigRequest);
  w.WriteU64(now());
  SendToAllOthers(kKindSigFetch, w.TakeBuffer());
}

void CurrentAuthority::Finish() {
  finished_ = true;
  outcome_.signatures_held = static_cast<uint32_t>(signatures().size());
  const uint32_t majority = MajorityOf(node_count());
  if (outcome_.computed_consensus && signatures().size() >= majority) {
    Publish(outcome_);
  } else {
    log().Warn(now(), "No valid consensus this period (signatures: " +
                          std::to_string(signatures().size()) + " of " +
                          std::to_string(majority) + ").");
  }
}

void CurrentAuthority::OnMessage(NodeId from, const torbase::Frame& payload) {
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
  auto text = reader.ReadStringView();
  if (!posted_at.ok() || !text.ok()) {
    return;
  }
  if (now() > *posted_at + kDirRequestDeadline) {
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
  std::vector<std::shared_ptr<const std::string>> served;
  for (uint32_t i = 0; i < *count; ++i) {
    auto wanted = reader.ReadU32();
    if (!wanted.ok()) {
      return;
    }
    auto it = vote_texts_.find(*wanted);
    if (it != vote_texts_.end()) {
      served.push_back(it->second);
    }
  }
  if (served.empty()) {
    return;
  }
  // The response references the texts this authority holds, so a fetch
  // queued behind a flooded link costs pointers, not a copy of each vote.
  torbase::Writer w;
  w.WriteU8(kVoteResponse);
  w.WriteU64(*request_time);
  w.WriteU32(static_cast<uint32_t>(served.size()));
  for (auto& text : served) {
    w.WriteShared(std::move(text));
  }
  SendTo(from, kKindVoteFetch, w.TakeFrame());
}

void CurrentAuthority::HandleVoteResponse(NodeId, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  const bool on_time = now() <= *request_time + kDirRequestDeadline;
  for (uint32_t i = 0; i < *count; ++i) {
    auto text = reader.ReadStringView();
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

void CurrentAuthority::AcceptVote(NodeId culprit, std::string_view text) {
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
  auto digest = torcrypto::ReadDigest(reader);
  auto sig = torcrypto::ReadSignature(reader);
  if (!posted_at.ok() || !digest.ok() || !sig.ok()) {
    return;
  }
  AcceptSignature(*sig, outcome_);
}

void CurrentAuthority::HandleSigRequest(NodeId from, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  if (!request_time.ok() || signatures().empty()) {
    return;
  }
  torbase::Writer w;
  w.WriteU8(kSigResponse);
  w.WriteU64(*request_time);
  w.WriteU32(static_cast<uint32_t>(signatures().size()));
  for (const auto& [signer, sig] : signatures()) {
    torcrypto::WriteSignature(w, sig);
  }
  SendTo(from, kKindSigFetch, w.TakeBuffer());
}

void CurrentAuthority::HandleSigResponse(NodeId, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  if (now() > *request_time + kDirRequestDeadline) {
    return;
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto sig = torcrypto::ReadSignature(reader);
    if (!sig.ok()) {
      return;
    }
    AcceptSignature(*sig, outcome_);
  }
}

}  // namespace torproto
