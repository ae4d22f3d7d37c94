// Long-horizon fault calendars: multi-round timelines as a first-class
// ScenarioRunner mode. The paper's headline is temporal — "five minutes of
// DDoS brings down Tor" for ~20 hours — so a single consensus round is the
// wrong unit of experiment: retry herds build up *across* rounds, crashed
// authorities rejoin rounds later, and diff baselines chain from whatever
// round last published. A TimelineSpec describes the whole horizon (round
// count, round period, and per-round fault *calendars*: attack schedules,
// crashes with recovery times, byzantine behaviors switching mid-horizon,
// extra churn blips) and RunTimeline executes it in one call.
//
// Execution model (the part that keeps the PR-2 bit-identity contract):
// a round's *simulation* is a pure function of its own ScenarioSpec — the
// cross-round state (diff baselines, held documents, client backlog) only
// affects post-run analysis. So RunTimeline derives one spec per round from
// the calendars, fans all rounds onto the existing parallel sweep pool, and
// then *stitches* the results. The stitch first serializes and tree-hashes
// each distinct published document, and diffs each distinct consecutive
// pair, once, on the sweep's workers (memoized rounds share one document
// pointer; serial at one thread and under the reference runner). Each task
// reads immutable documents and writes only its own slot, so the derived
// tables are the same at any thread count. A serial walk then builds:
//
//   * diff chains — each successful round's document is diffed against the
//     previous published one (framing digests linked), giving the per-round
//     wire sizes and the chain a straggler composes to catch up;
//   * rejoin accounting — a recovering authority fetches the current
//     consensus, via the composed diff chain when it is at most
//     kMaxDiffChainRounds behind (chain-applied and verified byte-identical
//     here, refused on any digest mismatch), else the full document;
//   * one whole-horizon client plane call — the bootstrap retry backlog and
//     serving ladder (fresh → stale-but-valid → down) evolve continuously
//     across round boundaries, so post-outage thundering herds are emergent;
//   * horizon health — HealthMonitor's timeline feed raises slow-recovery
//     and herd-overload on top of the per-round alert sets.
//
// Every boundary's carried state is an immutable RoundSnapshot; nothing a
// pool thread touches is mutated by the stitch (ROADMAP threading contract),
// and TimelineResult is bit-identical at any thread count
// (timeline_test.TimelineIsBitIdenticalAcrossThreadCounts).
#ifndef SRC_SCENARIO_TIMELINE_H_
#define SRC_SCENARIO_TIMELINE_H_

#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/scenario/scenario.h"

namespace torscenario {

// Rounds [first_round, last_round] run under `attack` (cloned per sweep cell;
// rounds outside every entry run unattacked). Entries must not overlap.
struct AttackCalendarEntry {
  uint32_t first_round = 0;
  uint32_t last_round = 0;
  std::shared_ptr<torattack::AttackSchedule> attack;
};

// An authority crashing `crash_offset` into `crash_round` and recovering
// `recover_offset` into `recover_round` (>= crash_round; fully down for every
// round in between). On recovery it rejoins by fetching the newest published
// document as of the previous round boundary — a composed diff chain when it
// is close enough behind, the full document otherwise (see RejoinEvent).
struct CrashCalendarEntry {
  torbase::NodeId node = 0;
  uint32_t crash_round = 0;
  torbase::TimePoint crash_offset = 0;
  uint32_t recover_round = 0;
  torbase::TimePoint recover_offset = 0;
};

// Byzantine behaviors active during rounds [first_round, last_round]:
// behaviors switch on and off at round boundaries. Overlapping entries merge;
// for an authority named twice, the later entry wins. The mutation_seed comes
// from the last entry covering the round.
struct ByzantineCalendarEntry {
  uint32_t first_round = 0;
  uint32_t last_round = 0;
  torproto::ByzantineSpec spec;
};

// A round-local churn blip beyond the crash calendar (event.at is an offset
// into the round).
struct ChurnCalendarEntry {
  uint32_t round = 0;
  ChurnEvent event;
};

struct TimelineSpec {
  std::string name;
  // Everything a round inherits: protocol, relay count, seed, bandwidth,
  // latency, ICPS knobs, and the client load evaluated over the whole
  // horizon. The per-round fields (attack, churn, byzantine,
  // previous_consensus, horizon, client_load.evaluation_window) are derived
  // from the calendars and horizon — values set here are ignored.
  ScenarioSpec base;

  uint32_t rounds = 24;
  torbase::Duration round_period = torbase::Hours(1);

  std::vector<AttackCalendarEntry> attacks;
  std::vector<CrashCalendarEntry> crashes;
  std::vector<ByzantineCalendarEntry> byzantine;
  std::vector<ChurnCalendarEntry> churn;
};

// A straggler at most this many published documents behind is served the
// composed diff chain; older (or colder) stragglers refetch the full
// document — real Tor's policy of serving diffs only from recent consensuses.
constexpr uint32_t kMaxDiffChainRounds = 12;

// The immutable state the timeline carries across one round boundary. Rounds
// simulate on private harnesses; the stitch's serial walk derives one
// snapshot per boundary and never mutates anything a pool thread produced.
struct RoundSnapshot {
  uint32_t round = 0;
  // This round's own simulation published a valid consensus.
  bool succeeded = false;
  // The newest published document at the boundary — this round's when it
  // succeeded, else carried forward from the last successful round. Null
  // until any round publishes.
  std::shared_ptr<const tordir::ConsensusDocument> consensus;
  std::shared_ptr<const std::string> consensus_text;
  // sha256-tree-v1 digest of consensus_text (the diff codec's framing digest)
  // and the round that published it. Zero / 0 while consensus is null.
  torcrypto::Digest256 consensus_digest;
  uint32_t consensus_round = 0;
  // The diff from the previously published document to this round's (null
  // when this round failed or published the horizon's first document).
  std::shared_ptr<const std::string> diff_from_previous;
  // Client plane state at the boundary: blocked bootstraps (0 when the plane
  // is off) and whether clients were being served a fresh document.
  double backlog_fetches = 0.0;
  bool fresh_at_boundary = false;
  // Authorities down at the boundary, ascending: the round's churn replayed
  // in the order the run applies it (ChurnInTimeOrder).
  std::vector<torbase::NodeId> crashed;

  auto Fields() const {
    const auto& [round, succeeded, consensus, consensus_text, consensus_digest,
                 consensus_round, diff_from_previous, backlog_fetches, fresh_at_boundary,
                 crashed] = *this;
    return std::tie(round, succeeded, consensus, consensus_text, consensus_digest,
                    consensus_round, diff_from_previous, backlog_fetches, fresh_at_boundary,
                    crashed);
  }
};

// One authority rejoining after a crash: what catching up cost.
struct RejoinEvent {
  torbase::NodeId node = 0;
  // The round whose recover event brought the authority back.
  uint32_t round = 0;
  // Published documents it missed while down (0 when it was already current).
  uint32_t rounds_behind = 0;
  // It held no document at all before the crash (cold rejoin: full fetch).
  bool cold = false;
  // Caught up by composing consecutive per-round diffs (verified
  // byte-identical to the full document before counting). Only taken when the
  // chain is within kMaxDiffChainRounds AND cheaper than one full fetch.
  bool via_diff_chain = false;
  // A candidate chain failed framing-digest verification and was refused;
  // the authority fell back to the full document.
  bool chain_refused = false;
  // Wire bytes of the catch-up transfer (chain diffs or the full document).
  uint64_t bytes = 0;

  bool operator==(const RejoinEvent&) const = default;
};

struct TimelineResult {
  // One ScenarioResult per round, exactly as the sweep produced them.
  std::vector<ScenarioResult> rounds;
  // One snapshot per round boundary (same length as rounds).
  std::vector<RoundSnapshot> snapshots;
  // The whole horizon through the consumption plane (enabled iff
  // base.client_load.client_count > 0): one SimulateClientLoad call over
  // rounds x round_period, so backlog and serving state persist across
  // boundaries.
  ClientAvailabilityResult client_availability;
  // Horizon-level alerts (slow-recovery, herd-overload, aggregated
  // dropped-messages); per-round alerts stay in rounds[i].health_alerts.
  std::vector<tordir::HealthAlert> health_alerts;
  std::vector<RejoinEvent> rejoins;

  uint32_t successful_rounds = 0;
  // Sum over rounds of silently-dropped directory messages.
  uint64_t undeliverable_messages = 0;
  // Byzantine authorities injected across the horizon (sum of per-round
  // counts) and how many of those per-round injections the health monitor
  // implicated.
  uint32_t byzantine_injected = 0;
  uint32_t byzantine_detected = 0;

  // --- recovery dynamics ---------------------------------------------------
  // When the calendar's last fault cleared: the latest of every attack/
  // byzantine entry's end-of-last-round and every crash's recovery instant.
  // NaN when the calendar is empty.
  double last_fault_cleared_seconds = std::numeric_limits<double>::quiet_NaN();
  // How long after that instant clients were first served fresh again (0 if
  // serving never degraded past it; NaN if they never were, or no faults).
  double time_to_fresh_seconds = std::numeric_limits<double>::quiet_NaN();
  // High-water mark of blocked bootstraps over the horizon (0, plane off).
  double peak_retry_backlog = 0.0;
  // Total catch-up bytes rejoining authorities transferred.
  uint64_t rejoin_bytes = 0;

  auto Fields() const {
    const auto& [rounds, snapshots, client_availability, health_alerts, rejoins,
                 successful_rounds, undeliverable_messages, byzantine_injected,
                 byzantine_detected, last_fault_cleared_seconds, time_to_fresh_seconds,
                 peak_retry_backlog, rejoin_bytes] = *this;
    return std::tie(rounds, snapshots, client_availability, health_alerts, rejoins,
                    successful_rounds, undeliverable_messages, byzantine_injected,
                    byzantine_detected, last_fault_cleared_seconds, time_to_fresh_seconds,
                    peak_retry_backlog, rejoin_bytes);
  }
};

// Derives the per-round ScenarioSpecs RunTimeline fans onto the sweep pool:
// round r's attack/byzantine/churn resolved from the calendars, horizon =
// round_period, client plane off (the stitch runs it once over the whole
// horizon), retain_consensus on. Exposed for tests and for drivers that want
// to inspect or rerun a single round; aborts on malformed calendars
// (out-of-range rounds, recover before crash, overlapping attack entries,
// crash or churn entries naming a non-authority node).
std::vector<ScenarioSpec> BuildTimelineRoundSpecs(const TimelineSpec& spec);

// Field-by-field equality with NaN == NaN over the Fields() lists above, the
// timeline engine's parallel == serial guarantee (documents and diffs compared
// by value).
inline bool BitIdentical(const RoundSnapshot& a, const RoundSnapshot& b) {
  return torbase::Same(a, b);
}
inline bool BitIdentical(const TimelineResult& a, const TimelineResult& b) {
  return torbase::Same(a, b);
}

}  // namespace torscenario

#endif  // SRC_SCENARIO_TIMELINE_H_
