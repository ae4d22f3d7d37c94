// Consensus-health monitoring (Table 1: the emergency fix by Luo et al. that
// was applied to Tor's consensus-health monitor [35]). The monitor ingests
// what an observer can see of a directory round — which authorities' votes
// each authority received (and rejected), and the signed consensus documents
// published — and raises alerts for the observable attack signatures:
//
//   * kMissingVotes        — a majority of authorities missing the same
//                            senders' votes (the §4 DDoS signature, Figure 1)
//   * kVoteEquivocation    — one authority's vote seen with two digests
//   * kConsensusFork       — two differently-signed consensus documents in
//                            one period (the Luo et al. equivocation attack)
//   * kNoConsensus         — nobody produced a valid consensus this period
//   * kMalformedVote       — an authority put bytes on the wire that are not
//                            the canonical encoding of any vote (kMalformed
//                            at admission)
//   * kReplayedVote        — an authority re-sent a vote whose validity
//                            window had already closed (replay/stale
//                            signature)
//   * kBandwidthInflation  — an authority's vote claims a total relay
//                            bandwidth far above the median of its peers
//                            (the TorMult-style inflation attack)
//   * kDroppedMessages     — the network silently dropped directory messages
//                            whose links could never carry them (flooded or
//                            dead NICs) — the §4 flood made observable
//   * kSlowRecovery        — a multi-round timeline stayed degraded past the
//                            allowed number of rounds after its fault
//                            calendar cleared
//   * kHerdOverload        — the post-outage bootstrap retry herd peaked
//                            above the allowed fraction of the population
//
// The last two come from the *timeline* feed (RecordTimelineRound): a
// multi-round engine reports one observation per round and Analyze() scans
// the horizon for recovery pathologies no single round can see.
//
// Detection does not *fix* the protocol (the paper's point), but it is the
// deployed mitigation for the current network and gives operators the Fig. 1
// style evidence this repository reproduces.
#ifndef SRC_TORDIR_HEALTH_MONITOR_H_
#define SRC_TORDIR_HEALTH_MONITOR_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/crypto/digest.h"
#include "src/tordir/admission.h"
#include "src/tordir/vote.h"

namespace tordir {

enum class HealthAlertKind {
  kMissingVotes,
  kVoteEquivocation,
  kConsensusFork,
  kNoConsensus,
  kMalformedVote,
  kReplayedVote,
  kBandwidthInflation,
  kDroppedMessages,
  kSlowRecovery,
  kHerdOverload,
};

const char* HealthAlertName(HealthAlertKind kind);

struct HealthAlert {
  HealthAlertKind kind;
  // Authorities implicated (senders whose votes were missing / the
  // equivocator / signers of forked documents).
  std::vector<torbase::NodeId> authorities;
  std::string detail;
  // Simulation time (seconds) of the earliest evidence supporting the alert:
  // the second distinct digest for equivocation, the first rejected message
  // for malformed/replayed votes, the first sighting of an inflated vote.
  // -1.0 when the alert is about an *absence* (missing votes, no consensus)
  // or predates evidence timestamps (legacy RecordVote feeds).
  double first_evidence_seconds = -1.0;

  // ScenarioResult carries alerts, so they participate in the parallel
  // sweep's BitIdentical equivalence.
  bool operator==(const HealthAlert&) const = default;
};

// Everything an observer learns from one *admitted* vote: who sent it, the
// digest of its canonical bytes, when it first arrived, and the total relay
// bandwidth it claims (for inflation detection).
struct VoteObservation {
  torbase::NodeId sender = torbase::kNoNode;
  torcrypto::Digest256 digest;
  double at_seconds = 0.0;
  uint64_t total_bandwidth = 0;
};

// What a multi-round timeline engine observed of one round, fed through
// RecordTimelineRound so Analyze() can scan the whole horizon: which rounds
// the fault calendar touched, whether clients ended the round served fresh,
// and how large the bootstrap retry backlog grew relative to the population.
struct TimelineRoundObservation {
  uint64_t round = 0;
  // The calendar injected a fault overlapping this round (attack window,
  // crash/recovery, byzantine behavior).
  bool faulted = false;
  // Clients were being served a *fresh* document at the round boundary.
  bool fresh_at_end = false;
  // Peak blocked-bootstrap backlog this round / population size (0 when the
  // engine ran without a client plane).
  double peak_backlog_fraction = 0.0;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(uint32_t authority_count) : authority_count_(authority_count) {}

  // Records that `observer` received a vote from `sender` with `digest`.
  // Legacy feed: equivalent to RecordObservation with no timestamp or
  // bandwidth evidence.
  void RecordVote(torbase::NodeId observer, torbase::NodeId sender,
                  const torcrypto::Digest256& digest);

  // Records an admitted vote with full evidence.
  void RecordObservation(torbase::NodeId observer, const VoteObservation& observation);

  // Records that `observer` rejected a vote attributed to `sender` at
  // admission. Rejected votes do NOT count as received for the missing-votes
  // check — an authority whose votes are rejected everywhere is missing from
  // aggregation just as surely as one that never sent them.
  void RecordReject(torbase::NodeId observer, torbase::NodeId sender, VoteRejectReason reason,
                    double at_seconds);

  // Records a consensus document an authority ended the period with
  // (`digest` of the unsigned body); nullopt when it failed to produce one.
  void RecordConsensus(torbase::NodeId authority,
                       std::optional<torcrypto::Digest256> digest);

  // Records `count` directory messages the network dropped because their
  // links could never carry them (flooded or dead NICs). Accumulates.
  void RecordUndeliverable(uint64_t count);

  // Timeline feed: one observation per round of a multi-round horizon, in
  // round order. Analyze() raises kSlowRecovery when serving stays degraded
  // more than kSlowRecoveryRounds past the last faulted round, and
  // kHerdOverload when any round's backlog fraction exceeds
  // kHerdOverloadFraction.
  void RecordTimelineRound(const TimelineRoundObservation& observation);

  // A recovery is "slow" when clients are still not served fresh this many
  // full rounds after the calendar's last faulted round.
  static constexpr uint32_t kSlowRecoveryRounds = 1;
  // A retry herd is an overload when blocked bootstraps exceed this fraction
  // of the whole population.
  static constexpr double kHerdOverloadFraction = 0.25;

  // Evaluates the period and returns all alerts (empty = healthy).
  std::vector<HealthAlert> Analyze() const;

 private:
  struct SenderStat {
    // digest -> earliest time this digest was seen (>=2 entries means
    // equivocation; the second-earliest time is the evidence instant).
    std::map<torcrypto::Digest256, double> first_seen;
    uint64_t max_total_bandwidth = 0;
    double first_observed_seconds = -1.0;
    bool has_bandwidth = false;
  };
  struct RejectStat {
    uint32_t count = 0;
    double earliest_seconds = -1.0;
  };

  uint32_t authority_count_;
  // sender -> everything observed about its vote(s).
  std::map<torbase::NodeId, SenderStat> senders_;
  // observer -> senders it received admitted votes from.
  std::map<torbase::NodeId, std::set<torbase::NodeId>> received_from_;
  // sender -> reason -> rejection evidence.
  std::map<torbase::NodeId, std::map<VoteRejectReason, RejectStat>> rejects_;
  // authority -> consensus digest (if it produced one).
  std::map<torbase::NodeId, std::optional<torcrypto::Digest256>> consensus_;

  // Undeliverable-message drops reported for this period (or horizon).
  uint64_t undeliverable_ = 0;

  // Timeline feed, in record order; empty outside multi-round analyses.
  std::vector<TimelineRoundObservation> timeline_rounds_;
};

}  // namespace tordir

#endif  // SRC_TORDIR_HEALTH_MONITOR_H_
