// Pluggable directory-protocol abstraction. The scenario layer dispatches on
// this interface instead of switching over an enum: a protocol knows how to
// build its per-authority actor and how to read the paper's metrics back out
// of one, so adding a fourth protocol is one registration instead of three
// switch statements. An actor is built from AuthorityMaterials: the shared,
// immutable workload documents plus the cell's DocumentStore, the one shared
// member an authority writes to.
#ifndef SRC_PROTOCOLS_DIRECTORY_PROTOCOL_H_
#define SRC_PROTOCOLS_DIRECTORY_PROTOCOL_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/crypto/signature.h"
#include "src/protocols/common.h"
#include "src/protocols/document_store.h"
#include "src/sim/actor.h"
#include "src/tordir/vote.h"

namespace torproto {

// Run-level knobs shared by every protocol factory. Implementations consume
// what applies to them and ignore the rest (the ICPS fields are no-ops for the
// lock-step protocols).
struct ProtocolRunConfig {
  uint32_t authority_count = 9;
  // ICPS dissemination wait Δ.
  torbase::Duration dissemination_timeout = torbase::Seconds(150);
  // ICPS agreement commit path: false = 3-phase HotStuff, true = Jolteon-style
  // 2-phase (the paper's variant).
  bool two_phase_agreement = false;
};

// One authority's run outcome, unified across protocols. The per-protocol
// outcome structs (AuthorityOutcome, SyncOutcome, IcpsOutcome) stay richer;
// this is the slice every consumer of the scenario layer needs.
struct UnifiedOutcome {
  bool valid_consensus = false;
  size_t consensus_relays = 0;
  // The paper's §6.2 "network time" in seconds: for the lock-step protocols,
  // the sum of per-round processing times excluding the idle remainder of each
  // round; for ICPS, simply start-to-finish. NaN if this authority never
  // assembled a valid consensus.
  double network_time_seconds = std::numeric_limits<double>::quiet_NaN();
  // Absolute virtual time (seconds) at which this authority finished. NaN on
  // failure.
  double finish_seconds = std::numeric_limits<double>::quiet_NaN();
};

// What an authority ended the run publishing: the consensus document (null
// until a *valid* consensus — majority signatures — was assembled) and the
// absolute virtual time it became available for directory caches to mirror.
// This is the hand-off point between the production plane (authorities) and
// the consumption plane (src/clients): the scenario runner probes it to turn
// protocol outcomes into client-visible availability.
struct PublishedConsensus {
  const tordir::ConsensusDocument* document = nullptr;
  torbase::TimePoint published_at = torbase::kTimeNever;
  // Digest of the document's unsigned body, when the authority computed one
  // during the run (all built-ins do) — lets the health monitor record
  // consensus digests without re-serializing multi-megabyte documents.
  const torcrypto::Digest256* digest = nullptr;
};

// The inputs an authority actor shares with its workload instead of copying:
// its own vote document and serialized bytes, plus the workload's digest-keyed
// cache of every authority's pre-parsed vote. These are read-only after
// construction, which is what lets sweep cells on different threads share them
// (see the threading contract in ROADMAP.md). `vote_text` may be null
// (serialize on demand); `vote_cache` may be null (parse received votes from
// scratch, the pre-cache behaviour). The one mutable, per-cell exception is
// the last member, `document_store`.
struct AuthorityMaterials {
  std::shared_ptr<const tordir::VoteDocument> vote;
  std::shared_ptr<const std::string> vote_text = nullptr;
  std::shared_ptr<const tordir::VoteCache> vote_cache = nullptr;
  // When set, the authority *equivocates*: odd-numbered peers receive these
  // bytes in the initial vote broadcast instead of `vote_text`. Null for
  // honest authorities; populated only by the byzantine wrapper layer
  // (src/protocols/byzantine.h).
  std::shared_ptr<const std::string> second_vote_text = nullptr;
  // Round-boundary restore seam: the consensus state this authority carried
  // out of a previous round (a crashed authority rejoining with the document
  // it fetched). Null for a cold start. Authorities retain it — it never
  // perturbs the protocol exchange — and SnapshotAuthority echoes it back
  // when the authority does not assemble a fresh consensus this round.
  std::shared_ptr<const AuthorityRoundState> round_state = nullptr;
  // The cell's store of derived consensus documents and received faulty
  // texts, shared by every authority of one cell so each distinct vote list
  // is aggregated and digested once, and each distinct faulty text hashed and
  // parsed once. Mutable, and reached only from its own cell's thread: the
  // runner creates one per cell and never hands it to another. Null gives
  // the authority a private store that interns no text, so it aggregates,
  // hashes and parses on its own.
  std::shared_ptr<DocumentStore> document_store = nullptr;
};

class DirectoryProtocol {
 public:
  virtual ~DirectoryProtocol() = default;

  // Registry key, e.g. "current". Lowercase, stable across releases.
  virtual std::string_view name() const = 0;
  // Column label for tables and figures, e.g. "Current" or "Ours".
  virtual std::string_view display_name() const = 0;

  // Builds authority `id`'s actor. `directory` outlives the actor;
  // `materials` carries the authority's own (shared, immutable) vote document
  // and text plus the workload vote cache, so sweep cells never re-serialize,
  // re-parse or deep-copy multi-megabyte votes per authority per run, and the
  // cell's document store, so its holders aggregate each vote list once.
  virtual std::unique_ptr<torsim::Actor> MakeAuthority(
      const ProtocolRunConfig& config, const torcrypto::KeyDirectory* directory,
      torbase::NodeId id, AuthorityMaterials materials) const = 0;

  // Reads the unified outcome back out of an actor this protocol created.
  virtual UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const = 0;

  // The consensus document `actor` would publish, with its publish time.
  // {nullptr, kTimeNever} when the authority never assembled a valid
  // consensus. The pointer stays valid as long as the actor does.
  virtual PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const {
    (void)actor;
    return {};
  }

  // Snapshots the durable state `actor` carries across a round boundary: the
  // consensus it assembled this round (document copied flat, text serialized
  // canonically), or — for the built-ins — the round_state it was restored
  // with when it assembled nothing (a rejoining authority keeps serving what
  // it fetched). The base implementation covers any protocol that answers
  // ProbeConsensus; protocols with richer cross-round state override.
  // Snapshot → restore → snapshot round-trips bit-identically (pinned per
  // registered protocol by timeline_test).
  virtual AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const;

  // The authorities whose votes (relay lists / vote documents, in each
  // protocol's vocabulary) `actor` ended the run holding, its own included.
  // The consensus-health monitor ingests this to detect the §4 missing-votes
  // DDoS signature. Empty for protocols that do not expose it.
  virtual std::vector<torbase::NodeId> ProbeVoteSenders(const torsim::Actor& actor) const {
    (void)actor;
    return {};
  }

  // Every vote `actor` admitted from a peer during the run, with arrival
  // times and shared parsed documents. Supersedes ProbeVoteSenders as the
  // health monitor's feed (per-observer digests are what expose
  // equivocation); empty for protocols that do not track it, in which case
  // the monitor falls back to ProbeVoteSenders.
  virtual std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const {
    (void)actor;
    return {};
  }

  // Every vote text `actor` refused at admission during the run.
  virtual std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const {
    (void)actor;
    return {};
  }

  // The (view, leader) of `actor`'s in-flight agreement sub-protocol, if the
  // protocol has a leader notion and the agreement is still undecided.
  // Adaptive leader-chasing attacks key off this.
  virtual std::optional<std::pair<uint64_t, torbase::NodeId>> AgreementView(
      const torsim::Actor& actor) const {
    (void)actor;
    return std::nullopt;
  }
};

// --- registry ----------------------------------------------------------------
// The built-in protocols ("current", "synchronous", "icps") register lazily on
// first lookup; tests and downstream code may add more. Registering a name
// twice replaces the earlier implementation.

void RegisterProtocol(std::unique_ptr<DirectoryProtocol> protocol);

// nullptr when `name` is unknown.
const DirectoryProtocol* FindProtocol(std::string_view name);

// Aborts with a diagnostic when `name` is unknown — scenario specs naming a
// missing protocol are configuration errors.
const DirectoryProtocol& GetProtocol(std::string_view name);

// Sorted registry keys.
std::vector<std::string> RegisteredProtocolNames();

}  // namespace torproto

#endif  // SRC_PROTOCOLS_DIRECTORY_PROTOCOL_H_
