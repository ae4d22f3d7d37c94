// The consensus consumption plane: an aggregate, fluid-flow model of the
// client population fetching the directory. The paper's title claim — five
// minutes of DDoS *brings down Tor* — is a statement about clients: when
// authorities miss consensus rounds the published consensus goes stale, and
// clients can no longer bootstrap or keep their directory view live. This
// module converts the directory protocol's publish timeline into that
// client-visible availability surface.
//
// Model (assumptions documented in EXPERIMENTS.md):
//
//   * Two cohorts. Steady-state clients already hold a consensus and refetch
//     once per hourly directory period; bootstrapping clients arrive fresh
//     and must complete a fetch before they can use the network. Each
//     cohort's fetch arrivals form a Poisson process; with millions of
//     independent clients the superposed process is tracked in its fluid
//     (mean-field) limit, so demand is a deterministic rate, exact up to
//     O(1/sqrt(N)) fluctuations.
//   * A tier of directory caches mirrors the freshest published consensus
//     10 s after an authority publishes it and serves all client fetches.
//     Each cache is a torsim::BandwidthSchedule; aggregate demand is
//     integrated against aggregate cache capacity in closed form. The cost of
//     a run is O(caches + documents + schedule segments) — independent of the
//     client count, so 5M clients cost the same as 5.
//   * Clock convention: authorities start a run `vote_lead` before their
//     consensus's valid-after instant (Tor votes at :50 for the :00
//     consensus), so in healthy operation the new document lands exactly as
//     the previous one goes stale. Virtual time t corresponds to unix time
//     valid_after - vote_lead + t.
//   * Clients and caches start the window holding the previous period's
//     document: fresh until vote_lead, and valid for two further periods (a
//     consensus is valid for three hourly periods, tordir/freshness.h).
//
// Served fetches are classified by the freshness of the best document the
// caches hold: *fresh* (the healthy path), *stale* (discouraged but usable —
// the client-visible degradation window), or *unserved* (no valid document
// at all, or no cache capacity). Bootstrapping clients that cannot be served
// while no valid document exists accumulate in a retry backlog that drains at
// cache capacity when a document returns — the post-outage thundering herd.
// The window starts with an empty backlog; a multi-round horizon is one
// window (torscenario::ScenarioRunner::RunTimeline), never chained ones.
#ifndef SRC_CLIENTS_POPULATION_H_
#define SRC_CLIENTS_POPULATION_H_

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "src/common/time.h"
#include "src/sim/bandwidth.h"

namespace torclients {

// Fraction of the population bootstrapping (first fetch) during each
// directory period; the rest are steady-state refetchers.
constexpr double kBootstrapFraction = 0.05;

// The directory-cache tier mirroring the authorities' freshest consensus:
// 16 caches of 1 Gbit/s each.
constexpr uint32_t kCacheCount = 16;
constexpr double kCacheBandwidthBps = torsim::MegabitsPerSecond(1000);

// What to simulate: the client population served by the cache tier above.
// client_count == 0 disables the plane entirely.
struct ClientLoadSpec {
  // Total clients in the population. 5'000'000 is the paper's "millions of
  // users" order; the model's cost does not depend on this number.
  uint64_t client_count = 0;

  // Authorities start their run this long before the consensus's valid-after
  // (Tor votes at :50 for the :00 consensus). This maps document validity
  // windows, which are unix times, onto virtual run time.
  torbase::Duration vote_lead = torbase::Minutes(10);

  // Availability is evaluated over [0, evaluation_window) — one directory
  // period by default: the hour this run's consensus was supposed to cover.
  torbase::Duration evaluation_window = torbase::Hours(1);

  // Wire size used for the prior document and for runs that never published
  // (the demand integral needs a transfer size even when the round failed).
  // 0 = use the first real document's size, or 1 MB if there is none.
  double consensus_size_hint_bytes = 0.0;

  // Fraction of steady-state refetchers that fetch a consensus *diff*
  // (src/tordir/consensus_diff.h) instead of the full document when the
  // served document carries one (PublishedDocument::diff_size_bytes > 0).
  // Bootstrapping clients always need the full document, and documents
  // without a diff (the prior-period document, failed rounds) are served in
  // full to everyone — both conservative choices. 0 disables diff serving
  // and keeps the served-fetch arithmetic bit-identical to the pre-diff
  // model.
  double diff_capable_fraction = 0.0;

  auto Fields() const {
    const auto& [client_count, vote_lead, evaluation_window, consensus_size_hint_bytes,
                 diff_capable_fraction] = *this;
    return std::tie(client_count, vote_lead, evaluation_window, consensus_size_hint_bytes,
                    diff_capable_fraction);
  }
};

// One consensus document as the cache tier sees it, in virtual seconds
// (already mapped through the vote_lead clock convention).
struct PublishedDocument {
  // When the earliest authority published it (before the mirror delay).
  double published_seconds = 0.0;
  double fresh_until_seconds = 0.0;
  double valid_until_seconds = 0.0;
  double size_bytes = 0.0;
  // Wire size of the diff from the previously held document to this one;
  // 0 = no diff available, diff-capable clients fetch the full document.
  double diff_size_bytes = 0.0;
};

// One piecewise-constant segment of the availability timeline.
struct AvailabilitySlice {
  enum class State {
    kFresh,  // a fresh document is being served
    kStale,  // only stale (but valid) documents available
    kDown,   // no valid document: fetches fail outright
  };

  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  State state = State::kFresh;
  // Aggregate fetches in this slice by outcome (fluid counts).
  double fresh_fetches = 0.0;
  double stale_fetches = 0.0;
  double unserved_fetches = 0.0;
  // Bytes the cache tier transferred in this slice (diff-capable steady
  // refetchers transfer the served document's diff when it has one).
  double served_bytes = 0.0;
  // Bootstrap retry backlog at the end of the slice.
  double backlog_fetches = 0.0;
};

// The client-visible availability of one evaluation window, as aggregate
// numbers. Shared with torscenario::ClientAvailabilityResult, which inherits
// it, so the field list exists once. All "seconds" are virtual; NaN marks
// events that never happened.
struct ClientAvailabilitySummary {
  double total_fetches = 0.0;
  double fresh_fetches = 0.0;
  double stale_fetches = 0.0;
  double unserved_fetches = 0.0;
  // fresh_fetches / total_fetches; NaN when there was no demand.
  double fresh_fraction = std::numeric_limits<double>::quiet_NaN();

  // First instant the cache tier had no fresh document (NaN = fresh
  // throughout the window).
  double time_to_first_stale_seconds = std::numeric_limits<double>::quiet_NaN();

  // Client-visible outage: total time with no *fresh* document — every fetch
  // returns a document clients must treat as out of date and keep retrying
  // against. This is the headline per-run degradation window.
  double outage_seconds = 0.0;
  double outage_start_seconds = std::numeric_limits<double>::quiet_NaN();

  // Hard down: total time with no *valid* document — the paper's full halt,
  // reached three missed rounds after the first broken run.
  double hard_down_seconds = 0.0;
  double hard_down_start_seconds = std::numeric_limits<double>::quiet_NaN();

  // High-water mark of bootstrapping clients blocked waiting for a document.
  double peak_backlog_fetches = 0.0;

  // Total bytes the cache tier transferred over the window (the served-bytes
  // integral; divide by client-hours for the serving-cost headline).
  double served_bytes = 0.0;

  auto Fields() const {
    const auto& [total_fetches, fresh_fetches, stale_fetches, unserved_fetches, fresh_fraction,
                 time_to_first_stale_seconds, outage_seconds, outage_start_seconds,
                 hard_down_seconds, hard_down_start_seconds, peak_backlog_fetches,
                 served_bytes] = *this;
    return std::tie(total_fetches, fresh_fetches, stale_fetches, unserved_fetches,
                    fresh_fraction, time_to_first_stale_seconds, outage_seconds,
                    outage_start_seconds, hard_down_seconds, hard_down_start_seconds,
                    peak_backlog_fetches, served_bytes);
  }
};

// The summary plus the per-slice timeline it was integrated from.
struct ClientAvailability : ClientAvailabilitySummary {
  std::vector<AvailabilitySlice> timeline;
};

// Integrates `spec`'s client demand against the cache tier and the published
// documents over [0, window_seconds). `documents` need not be sorted.
// Deterministic: pure closed-form arithmetic, no RNG, no simulator events.
ClientAvailability SimulateClientLoad(const ClientLoadSpec& spec,
                                      std::vector<PublishedDocument> documents,
                                      double window_seconds);

// Maps one round's published consensus — its unix validity window plus the
// publish instant within the round — onto the virtual timeline through the
// vote_lead clock convention (see the header comment). `round_start_seconds`
// is where the round sits on the stitched timeline: h * period for hour h of
// a multi-round replay, 0 for a single run. The single place this arithmetic
// lives; the scenario runner, benches and examples all go through it.
PublishedDocument MapToTimeline(double round_start_seconds, double published_in_round_seconds,
                                uint64_t valid_after, uint64_t fresh_until, uint64_t valid_until,
                                double size_bytes, torbase::Duration vote_lead);

}  // namespace torclients

#endif  // SRC_CLIENTS_POPULATION_H_
