// The part of a directory authority every built-in protocol shares: its
// immutable materials (own vote, its bytes, the workload vote cache, the
// equivocation variant, the restore seam), its signing key, the admission
// evidence the consensus-health monitor reads, the consensus digest and the
// initial vote broadcast. CurrentAuthority, SyncAuthority and IcpsAuthority
// add only their phase logic, their attribution rule for refused votes, the
// senders they hold votes from and their §6.2 network-time formula — so one
// protocol adapter (registry.cc) probes all three through this class, and
// admission evidence is recorded the same way for every protocol.
#ifndef SRC_PROTOCOLS_AUTHORITY_CORE_H_
#define SRC_PROTOCOLS_AUTHORITY_CORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/protocols/common.h"
#include "src/protocols/directory_protocol.h"
#include "src/sim/actor.h"
#include "src/tordir/admission.h"
#include "src/tordir/vote.h"

namespace torproto {

// Who a stale (replayed or expired) vote is held against. Stale votes are
// canonical, so their author line is trustworthy; protocols whose wire sender
// signed the exact bytes blame the sender instead.
enum class StaleBlame { kCulprit, kAuthor };

class AuthorityCore : public torsim::Actor {
 public:
  // `directory` must outlive the actor; the authority signs with the key of
  // its vote's author. A null `materials.vote_text` is serialized here.
  AuthorityCore(const torcrypto::KeyDirectory* directory, AuthorityMaterials materials);

  // The valid (majority-signed) consensus this authority assembled, with the
  // time it became valid; {nullptr, kTimeNever} otherwise.
  virtual PublishedConsensus Published() const = 0;
  // The paper's §6.2 network time of a valid consensus, in seconds.
  virtual double NetworkTimeSeconds() const = 0;
  // Authorities whose votes (in this protocol's vocabulary) this one holds,
  // its own included — the health monitor's pre-observation feed.
  virtual std::vector<NodeId> vote_senders() const = 0;
  // (view, leader) of an undecided agreement sub-protocol, for protocols with
  // a leader notion; adaptive leader-chasing attacks key off it.
  virtual std::optional<std::pair<uint64_t, NodeId>> agreement_view() const {
    return std::nullopt;
  }

  // Digest of the unsigned consensus body, once computed this run.
  const std::optional<torcrypto::Digest256>& consensus_digest() const { return consensus_digest_; }
  // The round-boundary state this authority was restored with (null for a
  // cold start). Retained and echoed by SnapshotAuthority, never part of the
  // protocol exchange.
  const std::shared_ptr<const AuthorityRoundState>& round_state() const { return round_state_; }

  // Admission evidence, in arrival order: peers' votes this authority
  // admitted (own excluded) and texts it refused.
  const std::vector<ObservedVote>& observed_votes() const { return observed_votes_; }
  const std::vector<RejectedVote>& rejected_votes() const { return rejected_votes_; }

 protected:
  // Runs `text` through vote admission (src/tordir/admission.h) against this
  // authority's voting period; a non-null `digest` spares re-hashing. A
  // refusal is logged as "<context>: <status>" and recorded against
  // `culprit`, or — under StaleBlame::kAuthor — a stale vote against its own
  // author. Culprits outside the authority set (kNoNode: unattributable)
  // are not recorded.
  tordir::VoteAdmission Admit(const std::string& text, const torcrypto::Digest256* digest,
                              NodeId culprit, StaleBlame stale_blame, std::string_view context);
  // Records an admitted peer vote from `sender` as health-monitor evidence.
  void Observe(NodeId sender, const tordir::VoteAdmission& admission);

  // Sends this authority's vote to every peer; `frame(writer, text,
  // alternate)` writes one message carrying `text`. Honest authorities build
  // a single frame for everyone. Equivocating ones (second_vote_text set by
  // the byzantine layer) give odd peers the second variant: each peer still
  // sees one self-consistent vote, and only cross-observer digest comparison
  // (the health monitor) exposes the split.
  template <typename Frame>
  void BroadcastVote(const std::string& kind, Frame&& frame) {
    if (second_vote_text_ == nullptr) {
      torbase::Writer w;
      frame(w, *own_vote_text_, false);
      SendToAllOthers(kind, w.buffer());
      return;
    }
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer == id()) {
        continue;
      }
      const bool alternate = peer % 2 == 1;
      torbase::Writer w;
      frame(w, alternate ? *second_vote_text_ : *own_vote_text_, alternate);
      SendTo(peer, kind, w.TakeBuffer());
    }
  }

  // Published() for protocols whose outcome carries valid_consensus,
  // consensus and finished_at.
  template <typename Outcome>
  PublishedConsensus PublishedFrom(const Outcome& outcome) const {
    if (!outcome.valid_consensus) {
      return {};
    }
    return {&outcome.consensus, outcome.finished_at,
            consensus_digest_.has_value() ? &*consensus_digest_ : nullptr};
  }

  // vote_senders() over a map keyed by sender.
  template <typename Map>
  static std::vector<NodeId> KeysOf(const Map& by_sender) {
    std::vector<NodeId> keys;
    keys.reserve(by_sender.size());
    for (const auto& [sender, value] : by_sender) {
      keys.push_back(sender);
    }
    return keys;
  }

  const torcrypto::KeyDirectory* directory_;
  torcrypto::Signer signer_;
  const std::shared_ptr<const tordir::VoteDocument> own_vote_;
  std::shared_ptr<const std::string> own_vote_text_;
  // Null when the authority is honest.
  const std::shared_ptr<const std::string> second_vote_text_;
  std::optional<torcrypto::Digest256> consensus_digest_;

 private:
  const std::shared_ptr<const tordir::VoteCache> vote_cache_;
  const std::shared_ptr<const AuthorityRoundState> round_state_;
  std::vector<ObservedVote> observed_votes_;
  std::vector<RejectedVote> rejected_votes_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_AUTHORITY_CORE_H_
