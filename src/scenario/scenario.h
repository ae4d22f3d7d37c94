// Declarative experiment scenarios. A ScenarioSpec says *what* to run — which
// registered directory protocol, how many relays/authorities, per-authority
// bandwidth, the attack schedule, churn — and the ScenarioRunner (runner.h)
// executes it. Every bench and example describes its workload as a spec
// instead of hand-wiring harnesses, so a new workload is a new spec, not a new
// driver.
#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/clients/population.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/protocols/byzantine.h"
#include "src/tordir/health_monitor.h"
#include "src/tordir/vote.h"

namespace torscenario {

// An authority leaving or (re)joining the network mid-run, modelled as its
// link dropping to zero / returning to the spec rate — the same fluid
// mechanism as a DDoS, but permanent until the matching recover event. A
// crash overrides attack windows installed up front (the node does not come
// back when a window's clamp expires); only dynamic schedules re-clamping the
// dead node *after* the crash can briefly raise its rate again.
struct ChurnEvent {
  enum class Kind { kCrash, kRecover };

  torbase::NodeId node = 0;
  torbase::TimePoint at = 0;
  Kind kind = Kind::kCrash;
};

struct ScenarioSpec {
  // Free-form label, echoed in reports.
  std::string name;

  // DirectoryProtocol registry key: "current", "synchronous", "icps", or any
  // protocol registered by downstream code.
  std::string protocol = "current";

  uint32_t authority_count = 9;
  size_t relay_count = 7000;
  // Population/vote generation seed. Sweep cells sharing
  // (relay_count, seed, authority_count) reuse the generated workload.
  uint64_t seed = 1;

  // Uniform authority NIC capacity...
  double bandwidth_bps = torattack::kAuthorityLinkBps;
  // ...with per-authority overrides for heterogeneous deployments.
  std::map<torbase::NodeId, double> bandwidth_by_authority;

  torbase::Duration latency = torbase::Millis(50);

  // Attack schedule; null = unattacked. shared_ptr so a sweep can reuse one
  // schedule object across cells (each run installs a private clone).
  std::shared_ptr<torattack::AttackSchedule> attack;

  std::vector<ChurnEvent> churn;

  // Simulation horizon; the ICPS protocol under heavy starvation may need
  // hours of virtual time.
  torbase::TimePoint horizon = torbase::Hours(4);

  // ICPS knobs (ignored by the lock-step protocols).
  torbase::Duration dissemination_timeout = torbase::Seconds(150);
  bool two_phase_agreement = false;

  // The consumption plane: an aggregate client population fetching this
  // run's consensus through a tier of directory caches (src/clients).
  // client_load.client_count == 0 (the default) disables it, leaving the
  // run's existing metrics untouched.
  torclients::ClientLoadSpec client_load;

  // Feed the run's observable vote/consensus record through
  // tordir::HealthMonitor and surface the alerts in the result. Post-run
  // analysis only; never perturbs the simulation.
  bool monitor_health = true;

  // The previous round's published consensus, when this run is one round of a
  // stitched multi-round timeline (client_availability's 24-hour replay).
  // When set and this run publishes, the result reports the wire size of the
  // consensus diff (src/tordir/consensus_diff.h) from this document to the
  // published one next to the full size, and the client plane's diff-capable
  // cohort is served at that size. Null (the default) = no diff baseline; the
  // run behaves exactly as before. shared_ptr so sweeps share one immutable
  // document across cells.
  std::shared_ptr<const tordir::ConsensusDocument> previous_consensus;

  // Per-authority byzantine behaviors (empty = all honest). Implemented as a
  // faulty-materials wrapper around the spec's protocol
  // (torproto::ByzantineProtocol), so it composes with any registered
  // protocol, any attack schedule, and churn.
  torproto::ByzantineSpec byzantine;

  // Retain a flat copy of the published document in
  // ScenarioResult::consensus_document even when the client plane is off.
  // The timeline engine (src/scenario/timeline.h) needs every round's actual
  // document for diff chains and rejoin accounting without paying for a
  // per-round client plane; interned relay strings make the copy cheap.
  bool retain_consensus = false;
};

// The client-visible availability of one run, distilled from
// torclients::ClientAvailability (the per-slice timeline stays in the
// library; results carry the aggregate surface).
struct ClientAvailabilityResult {
  bool enabled = false;  // the spec carried a client load

  double total_fetches = 0.0;
  double fresh_fetches = 0.0;
  double stale_fetches = 0.0;
  double unserved_fetches = 0.0;
  // Fraction of fetch demand served with a fresh consensus; NaN = no demand.
  double fresh_fraction = std::numeric_limits<double>::quiet_NaN();

  // First instant the cache tier had no fresh document; NaN = never.
  double time_to_first_stale_seconds = std::numeric_limits<double>::quiet_NaN();
  // Client-visible outage: total time with no fresh document available.
  double outage_seconds = 0.0;
  double outage_start_seconds = std::numeric_limits<double>::quiet_NaN();
  // Hard down: total time with no valid document at all (the paper's halt).
  double hard_down_seconds = 0.0;
  double hard_down_start_seconds = std::numeric_limits<double>::quiet_NaN();
  // High-water mark of bootstrapping clients blocked waiting for a document.
  double peak_backlog_fetches = 0.0;

  // Total bytes the cache tier transferred over the evaluation window, and
  // the serving-cost headline: bytes per client-hour under the spec's
  // diff_capable_fraction, and the full-document counterfactual (the same
  // run with diff serving disabled). Equal when no diff cohort exists; NaN
  // when there was no demand.
  double served_bytes = 0.0;
  double bytes_per_client_hour = std::numeric_limits<double>::quiet_NaN();
  double full_doc_bytes_per_client_hour = std::numeric_limits<double>::quiet_NaN();
};

struct ScenarioResult {
  bool succeeded = false;    // >= 1 authority assembled a valid consensus
  uint32_t valid_count = 0;  // authorities with a valid consensus

  // §6.2 network time / absolute finish of the slowest successful authority.
  // NaN when the run failed.
  double latency_seconds = std::numeric_limits<double>::quiet_NaN();
  double finish_time_seconds = std::numeric_limits<double>::quiet_NaN();

  size_t consensus_relays = 0;
  uint64_t total_bytes_sent = 0;
  std::map<std::string, uint64_t> bytes_by_kind;
  // Directory messages the network dropped because their NIC schedules could
  // never carry them (flooded or dead links) — Network::undeliverable_count.
  // Nonzero drops also raise a dropped-messages health alert.
  uint64_t undeliverable_messages = 0;
  // Authorities that ended the run holding a valid consensus, ascending. The
  // timeline engine's rejoin accounting keys off this: a crashed authority
  // absent here kept (only) the older document it held before the crash.
  std::vector<torbase::NodeId> consensus_holders;

  // (time, victims) pairs the attack schedule applied during this run; empty
  // for unattacked scenarios.
  std::vector<torattack::AttackSample> attack_history;

  // --- consumption plane ----------------------------------------------------
  // When the *earliest* authority published a valid consensus — the instant
  // directory caches can start mirroring it. NaN when the run failed.
  double consensus_published_seconds = std::numeric_limits<double>::quiet_NaN();
  // Unix validity window of the published document (all zero when none).
  uint64_t consensus_valid_after = 0;
  uint64_t consensus_fresh_until = 0;
  uint64_t consensus_valid_until = 0;
  // Serialized wire size of the published document; computed only when the
  // client plane is enabled (0 otherwise — serialization is not free).
  uint64_t consensus_size_bytes = 0;
  // Wire size of the consensus diff from spec.previous_consensus to the
  // published document; 0 when either is absent (no diff was computed).
  uint64_t consensus_diff_size_bytes = 0;
  // A flat copy of the published document, retained only when the client
  // plane is enabled — the diff baseline for the *next* round of a stitched
  // multi-round replay. Null when the run failed or the plane was off.
  std::shared_ptr<const tordir::ConsensusDocument> consensus_document;

  // Populated when spec.client_load.client_count > 0.
  ClientAvailabilityResult client_availability;

  // Consensus-health alerts for this run (spec.monitor_health); empty when
  // monitoring is off or the run looked healthy.
  std::vector<tordir::HealthAlert> health_alerts;

  // --- byzantine fault injection -------------------------------------------
  // Number of byzantine authorities the spec injected (behaviors on ids
  // >= authority_count don't count — they never instantiate).
  uint32_t byzantine_count = 0;
  // Injected byzantine authorities implicated by at least one health alert.
  // Requires spec.monitor_health; the fuzzer asserts == byzantine_count.
  uint32_t faults_detected = 0;
  // Latest first-evidence time over the alerts implicating injected
  // authorities — when the monitor had seen *every* injected fault. NaN when
  // nothing was injected or nothing was detected.
  double fault_detection_latency_seconds = std::numeric_limits<double>::quiet_NaN();
};

// Field-by-field equality with NaN == NaN (failed runs carry NaN latencies).
// This is the definition of "bit-identical" that the parallel sweep guarantees
// against serial execution; keep it in sync with ScenarioResult's fields so
// the equivalence test and perf_report keep covering all of them.
// scenario_test's ResultFieldListIsCoveredByBitIdentical pins the field list:
// adding a member to ScenarioResult (or ClientAvailabilityResult) without
// extending this comparison fails that test.
inline bool BitIdentical(const ClientAvailabilityResult& a, const ClientAvailabilityResult& b) {
  const auto same_double = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  return a.enabled == b.enabled && same_double(a.total_fetches, b.total_fetches) &&
         same_double(a.fresh_fetches, b.fresh_fetches) &&
         same_double(a.stale_fetches, b.stale_fetches) &&
         same_double(a.unserved_fetches, b.unserved_fetches) &&
         same_double(a.fresh_fraction, b.fresh_fraction) &&
         same_double(a.time_to_first_stale_seconds, b.time_to_first_stale_seconds) &&
         same_double(a.outage_seconds, b.outage_seconds) &&
         same_double(a.outage_start_seconds, b.outage_start_seconds) &&
         same_double(a.hard_down_seconds, b.hard_down_seconds) &&
         same_double(a.hard_down_start_seconds, b.hard_down_start_seconds) &&
         same_double(a.peak_backlog_fetches, b.peak_backlog_fetches) &&
         same_double(a.served_bytes, b.served_bytes) &&
         same_double(a.bytes_per_client_hour, b.bytes_per_client_hour) &&
         same_double(a.full_doc_bytes_per_client_hour, b.full_doc_bytes_per_client_hour);
}

inline bool BitIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  const auto same_double = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  return a.succeeded == b.succeeded && a.valid_count == b.valid_count &&
         same_double(a.latency_seconds, b.latency_seconds) &&
         same_double(a.finish_time_seconds, b.finish_time_seconds) &&
         a.consensus_relays == b.consensus_relays && a.total_bytes_sent == b.total_bytes_sent &&
         a.bytes_by_kind == b.bytes_by_kind &&
         a.undeliverable_messages == b.undeliverable_messages &&
         a.consensus_holders == b.consensus_holders && a.attack_history == b.attack_history &&
         same_double(a.consensus_published_seconds, b.consensus_published_seconds) &&
         a.consensus_valid_after == b.consensus_valid_after &&
         a.consensus_fresh_until == b.consensus_fresh_until &&
         a.consensus_valid_until == b.consensus_valid_until &&
         a.consensus_size_bytes == b.consensus_size_bytes &&
         a.consensus_diff_size_bytes == b.consensus_diff_size_bytes &&
         (a.consensus_document == b.consensus_document ||
          (a.consensus_document != nullptr && b.consensus_document != nullptr &&
           *a.consensus_document == *b.consensus_document)) &&
         BitIdentical(a.client_availability, b.client_availability) &&
         a.health_alerts == b.health_alerts && a.byzantine_count == b.byzantine_count &&
         a.faults_detected == b.faults_detected &&
         same_double(a.fault_detection_latency_seconds, b.fault_detection_latency_seconds);
}

}  // namespace torscenario

#endif  // SRC_SCENARIO_SCENARIO_H_
