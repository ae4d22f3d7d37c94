// Declarative experiment scenarios. A ScenarioSpec says *what* to run — which
// registered directory protocol, how many relays/authorities, per-authority
// bandwidth, the attack schedule, churn — and the ScenarioRunner (runner.h)
// executes it. Every bench and example describes its workload as a spec
// instead of hand-wiring harnesses, so a new workload is a new spec, not a new
// driver.
#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/clients/population.h"
#include "src/common/fields.h"
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

  auto Fields() const {
    const auto& [node, at, kind] = *this;
    return std::tie(node, at, kind);
  }
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

  // Retain the published document in ScenarioResult::consensus_document
  // even when the client plane is off. The timeline engine
  // (src/scenario/timeline.h) needs every round's actual document for diff
  // chains and rejoin accounting without paying for a per-round client
  // plane; the result shares the immutable document, so retaining costs no
  // copy.
  bool retain_consensus = false;

  // Every member but `name`, the memo's one documented exemption: a display
  // label never simulated (spec_digest.h).
  auto Fields() const {
    const auto& [name, protocol, authority_count, relay_count, seed, bandwidth_bps,
                 bandwidth_by_authority, latency, attack, churn, horizon, dissemination_timeout,
                 two_phase_agreement, client_load, monitor_health, previous_consensus, byzantine,
                 retain_consensus] = *this;
    return std::tie(protocol, authority_count, relay_count, seed, bandwidth_bps,
                    bandwidth_by_authority, latency, attack, churn, horizon,
                    dissemination_timeout, two_phase_agreement, client_load, monitor_health,
                    previous_consensus, byzantine, retain_consensus);
  }
};

// The client-visible availability of one run (or of a timeline's whole
// horizon): the summary fields of torclients::ClientAvailability (the
// per-slice timeline stays in the library), plus the serving-cost headline.
struct ClientAvailabilityResult : torclients::ClientAvailabilitySummary {
  bool enabled = false;  // the spec carried a client load

  // Bytes per client-hour under the spec's diff_capable_fraction, and the
  // full-document counterfactual (the same run with diff serving disabled).
  // Equal when no diff cohort exists; NaN when there was no demand.
  double bytes_per_client_hour = std::numeric_limits<double>::quiet_NaN();
  double full_doc_bytes_per_client_hour = std::numeric_limits<double>::quiet_NaN();

  // A structured binding cannot span a base and a derived class, so this list
  // is the summary's followed by the three members declared here.
  auto Fields() const {
    return std::tuple_cat(ClientAvailabilitySummary::Fields(),
                          std::tie(enabled, bytes_per_client_hour, full_doc_bytes_per_client_hour));
  }
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
  // The published document (shared and immutable), retained when the client
  // plane is enabled or spec.retain_consensus is set — the diff baseline for
  // the *next* round of a stitched multi-round replay. Null when the run
  // failed or neither asked for it.
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

  auto Fields() const {
    const auto& [succeeded, valid_count, latency_seconds, finish_time_seconds, consensus_relays,
                 total_bytes_sent, bytes_by_kind, undeliverable_messages, consensus_holders,
                 attack_history, consensus_published_seconds, consensus_valid_after,
                 consensus_fresh_until, consensus_valid_until, consensus_size_bytes,
                 consensus_diff_size_bytes, consensus_document, client_availability,
                 health_alerts, byzantine_count, faults_detected,
                 fault_detection_latency_seconds] = *this;
    return std::tie(succeeded, valid_count, latency_seconds, finish_time_seconds,
                    consensus_relays, total_bytes_sent, bytes_by_kind, undeliverable_messages,
                    consensus_holders, attack_history, consensus_published_seconds,
                    consensus_valid_after, consensus_fresh_until, consensus_valid_until,
                    consensus_size_bytes, consensus_diff_size_bytes, consensus_document,
                    client_availability, health_alerts, byzantine_count, faults_detected,
                    fault_detection_latency_seconds);
  }
};

// Field-by-field equality with NaN == NaN (failed runs carry NaN latencies),
// derived from the Fields() lists above (src/common/fields.h). This is the
// definition of "bit-identical" that the parallel sweep guarantees against
// serial execution.
inline bool BitIdentical(const ClientAvailabilityResult& a, const ClientAvailabilityResult& b) {
  return torbase::Same(a, b);
}

inline bool BitIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  return torbase::Same(a, b);
}

}  // namespace torscenario

#endif  // SRC_SCENARIO_SCENARIO_H_
