// The part of a directory authority every built-in protocol shares: its
// immutable materials (own vote, its bytes, the workload vote cache, the
// equivocation variant, the restore seam), its signing key, the admission
// evidence the consensus-health monitor reads, the initial vote broadcast and
// the consensus phase — aggregating the agreed votes with Tor's algorithm
// (Figure 2), signing the result, counting peers' signatures over it and
// publishing it with a majority of them (§3.1, §5.2). Aggregation, the
// body's digest and the signed document come from the cell's DocumentStore
// (materials.document_store, or a private store when none is given), so the
// holders of one vote list share that work, and holders that publish the same
// signature list share one signed document. A received text
// that is not the workload's is copied, hashed and parsed once per cell in
// that store's text table, so a faulty vote's receivers hold one document;
// without the cell's store (the reference runner) each delivery is hashed,
// parsed and window-checked on its own. CurrentAuthority,
// SyncAuthority and IcpsAuthority add only their phase logic (how they agree
// on a vote set and when they publish), their attribution rule for refused
// votes, the senders they hold votes from and their §6.2 network-time
// formula — so one protocol adapter (registry.cc) probes all three through
// this class, and admission evidence and signatures are handled the same way
// for every protocol.
#ifndef SRC_PROTOCOLS_AUTHORITY_CORE_H_
#define SRC_PROTOCOLS_AUTHORITY_CORE_H_

#include <cstdint>
#include <map>
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
#include "src/protocols/document_store.h"
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
  // authority's voting period. A canonical vote is found by its bytes, or by
  // `digest` when non-null (Digest256::Of(text)); any other text is parsed
  // once per cell in the store's text table, and only the validity-window
  // check is this authority's own. A refusal is logged as "<context>:
  // <status>" and recorded against `culprit`, or — under StaleBlame::kAuthor
  // — a stale vote against its own author. Culprits outside the authority
  // set (kNoNode: unattributable) are not recorded.
  tordir::VoteAdmission Admit(std::string_view text, const torcrypto::Digest256* digest,
                              NodeId culprit, StaleBlame stale_blame, std::string_view context);
  // A received text's digest and a shared copy that outlives its frame: the
  // vote cache entry's when the bytes are a canonical vote (no hash, no
  // copy), otherwise the text table's (one copy and one hash per cell).
  struct HeldText {
    torcrypto::Digest256 digest;
    std::shared_ptr<const std::string> text;
  };
  HeldText Hold(std::string_view text);
  // Hold's digest alone, with no copy: the vote cache entry's for a canonical
  // vote, the text table's (one hash per cell) for another text, and
  // Digest256::Of(text) without the cell's store.
  torcrypto::Digest256 DigestOf(std::string_view text);
  // Hold's shared copy alone; a canonical vote is not hashed, and another
  // text is hashed only once some receiver needs its digest.
  std::shared_ptr<const std::string> Share(std::string_view text);
  // Records an admitted peer vote from `sender` as health-monitor evidence.
  void Observe(NodeId sender, const tordir::VoteAdmission& admission);

  // Sends this authority's vote to every peer; `write(writer, text,
  // alternate)` writes one message carrying the shared `text`
  // (Writer::WriteShared, so every frame references the one copy). Honest
  // authorities build a single frame for everyone. Equivocating ones
  // (second_vote_text set by the byzantine layer) give odd peers the second
  // variant: each peer still sees one self-consistent vote, and only
  // cross-observer digest comparison (the health monitor) exposes the split.
  template <typename Write>
  void BroadcastVote(const std::string& kind, Write&& write) {
    if (second_vote_text_ == nullptr) {
      torbase::Writer w;
      write(w, own_vote_text_, false);
      SendToAllOthers(kind, w.TakeFrame());
      return;
    }
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer == id()) {
        continue;
      }
      const bool alternate = peer % 2 == 1;
      torbase::Writer w;
      write(w, alternate ? second_vote_text_ : own_vote_text_, alternate);
      SendTo(peer, kind, w.TakeFrame());
    }
  }

  // Aggregates `votes` (from distinct authorities) into outcome.consensus —
  // the document store's shared body for this vote list — records the digest
  // of that unsigned body, and counts and returns this authority's own
  // signature over it.
  torcrypto::Signature ComputeConsensus(
      const std::vector<std::shared_ptr<const tordir::VoteDocument>>& votes,
      ConsensusOutcome& outcome);
  // Counts `sig` towards the consensus unless it arrived before the consensus
  // was computed, its signer is outside the authority set or already
  // counted, or it does not verify against this authority's consensus digest
  // (a forgery, or a signature over a different document — which is what
  // makes equivocation observable). Sets outcome.finished_at when the count
  // first reaches a majority.
  void AcceptSignature(const torcrypto::Signature& sig, ConsensusOutcome& outcome);
  // Marks the consensus valid and replaces outcome.consensus with the
  // store's signed document: the body with the counted signatures in signer
  // order. Each protocol decides when: the lock-step ones at the end of their
  // last round, ICPS as soon as a majority has signed.
  void Publish(ConsensusOutcome& outcome);
  // Signatures counted so far, by signer.
  const std::map<NodeId, torcrypto::Signature>& signatures() const { return signatures_; }
  // The cell's document store (a private one when none was given).
  DocumentStore& document_store() { return *document_store_; }

  // Published() over this protocol's outcome.
  PublishedConsensus PublishedFrom(const ConsensusOutcome& outcome) const {
    if (!outcome.valid_consensus) {
      return {};
    }
    return {outcome.consensus, outcome.finished_at,
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

 private:
  // Admission without the log and the reject record.
  tordir::VoteAdmission AdmitText(std::string_view text, const torcrypto::Digest256* digest);

  const std::shared_ptr<const tordir::VoteCache> vote_cache_;
  const std::shared_ptr<const AuthorityRoundState> round_state_;
  // Whether received texts go through the store's text table: only when the
  // store is the cell's. A private store interns nothing, so an authority
  // built without the cell's store (the reference runner's) hashes, parses
  // and window-checks every delivery on its own.
  const bool intern_texts_;
  const std::shared_ptr<DocumentStore> document_store_;
  std::vector<ObservedVote> observed_votes_;
  std::vector<RejectedVote> rejected_votes_;
  std::optional<torcrypto::Digest256> consensus_digest_;
  std::map<NodeId, torcrypto::Signature> signatures_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_AUTHORITY_CORE_H_
