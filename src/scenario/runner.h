// Executes ScenarioSpecs. One runner owns a workload cache: generating the
// relay population and the n vote documents (plus their serialized bytes) is
// the dominant per-cell setup cost in fig10-style grids, and every cell of a
// bandwidth sweep shares the same (relay_count, seed, authority_count)
// workload — so the runner generates each workload once and reuses it across
// runs.
//
// Run is a one-cell Sweep, and sweeps can run cells in parallel
// (SweepOptions::threads): the workload cache is probed serially in spec
// order (so telemetry stays exact), cache-missing workloads are built
// concurrently on the sweep's thread pool, then each cell runs on a private
// Simulator/Harness with a per-cell clone of the attack schedule and a
// per-cell DocumentStore, through which the cell's consensus holders share
// each aggregation and its receivers each faulty text's parse. Parallel
// results are bit-identical to a serial sweep.
//
// On top of the workload cache sits a *result memo*: every run is a pure
// function of its spec (ROADMAP threading contract), so the runner keys
// finished ScenarioResults by the canonical spec digest
// (src/scenario/spec_digest.h) and serves repeat specs from the memo instead
// of re-simulating. The memo follows the workload cache's discipline —
// serial probe in spec order (telemetry exact at any thread count), misses
// executed in parallel, results published serially in first-appearance order
// and immutable once published. This is what makes long fault-calendar
// timelines cheap: the ~160 identical quiet rounds of a 168-round week
// collapse into one simulation.
#ifndef SRC_SCENARIO_RUNNER_H_
#define SRC_SCENARIO_RUNNER_H_

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/crypto/digest.h"
#include "src/scenario/scenario.h"
#include "src/sim/actor.h"
#include "src/tordir/generator.h"

namespace torscenario {

struct TimelineSpec;
struct TimelineResult;

// How a Sweep distributes its cells.
struct SweepOptions {
  // Worker threads running cells concurrently. 0 = hardware concurrency,
  // 1 = run serially on the calling thread.
  unsigned threads = 1;
};

class ScenarioRunner {
 public:
  // Post-run hook: runs after the simulation drained but before the harness is
  // torn down, for consumers that need more than a ScenarioResult (e.g. the
  // fig1 driver reads an authority's log records).
  using InspectFn =
      std::function<void(torsim::Harness& harness, const std::vector<torsim::Actor*>& actors)>;

  ScenarioRunner() = default;
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Runs one scenario: a one-cell Sweep. Deterministic given the spec; the
  // spec's attack schedule is never mutated (each run installs a clone).
  // Inspected runs bypass the result memo.
  ScenarioResult Run(const ScenarioSpec& spec, const InspectFn& inspect = InspectFn());

  // Runs every spec, sharing the workload cache across cells and
  // distributing them over `options.threads` workers. Results (and the
  // workload-cache and memo telemetry) are identical for any thread count.
  std::vector<ScenarioResult> Sweep(const std::vector<ScenarioSpec>& specs,
                                    const SweepOptions& options = SweepOptions());

  // Runs a long-horizon fault-calendar timeline (src/scenario/timeline.h):
  // derives one ScenarioSpec per round, fans the rounds onto the sweep pool,
  // then stitches diff chains, authority rejoins, the whole-horizon client
  // plane and recovery metrics in a deterministic serial pass. Bit-identical
  // for any thread count. Defined in timeline.cc.
  TimelineResult RunTimeline(const TimelineSpec& timeline);
  TimelineResult RunTimeline(const TimelineSpec& timeline, const SweepOptions& options);

  // Workload-cache telemetry (asserted by tests, reported by benches).
  size_t workload_cache_hits() const;
  size_t workload_cache_misses() const;
  size_t workload_cache_size() const;

  // Result-memo telemetry and control. The memo is on by default; turning it
  // off makes every cell pay full simulation — the differential baseline the
  // bit-identity tests and fuzz_sweep's --no-memo leg compare against. Not
  // safe to flip while runs are in flight.
  void set_memoize(bool on) { memoize_ = on; }
  bool memoize() const { return memoize_; }
  size_t result_memo_hits() const;
  size_t result_memo_misses() const;
  size_t result_memo_size() const;
  void ClearResultMemo();

  // The reference runner: every shortcut off at once, the differential
  // baseline fuzz_sweep's --reference leg and protocol_pin_test compare the
  // fast runner against. Authorities get no vote cache and no shared
  // document store, so every delivery is hashed, parsed and window-checked
  // by its receiver, and each holder aggregates and digests its own
  // consensus and packed votes; the network flattens every frame, so
  // receivers read contiguous bytes rather than the senders' shared texts;
  // the memo is off and cells run serially whatever SweepOptions asks.
  // Results are bit-identical to the fast runner's. Not safe to flip while
  // runs are in flight.
  void set_reference(bool on) { reference_ = on; }

 private:
  // A generated population plus all authorities' votes over it, with their
  // serialized bytes (actors need both, and serialization of a multi-megabyte
  // vote is too expensive to redo per authority per run). Immutable once
  // built; runs hand actors shared_ptrs to the documents — never copies —
  // which is safe across concurrent sweep cells precisely because nothing
  // here mutates after construction (ROADMAP threading contract).
  struct Workload {
    std::vector<tordir::RelayStatus> population;
    std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
    std::vector<std::shared_ptr<const std::string>> vote_texts;
    // Digest of each serialized vote, for the consensus-health monitor (the
    // simulated authorities are honest, so every copy of authority i's vote
    // matches this digest — hashed once per workload, not once per probe).
    std::vector<torcrypto::Digest256> vote_digests;
    // Digest-keyed view of the votes above: authorities that receive one of
    // these texts over the wire reuse the parsed document instead of calling
    // ParseVote at run time.
    std::shared_ptr<const tordir::VoteCache> vote_cache;
  };
  using WorkloadKey = std::tuple<size_t, uint64_t, uint32_t>;  // (relays, seed, n)
  // Cache entries are shared_futures so a key can be *in flight*: the first
  // caller to miss publishes a pending future under the lock and builds; any
  // other caller missing the same key concurrently finds the future (a hit —
  // one build, shared) and blocks on it instead of paying a duplicate
  // multi-second BuildWorkload.
  using WorkloadFuture = std::shared_future<std::shared_ptr<const Workload>>;

  // Generates a workload for `spec` without touching the cache or telemetry:
  // pure function of (relay_count, seed, authority_count), safe to call from
  // pool threads (the parallel sweep builds cache-missing workloads
  // concurrently; string interning inside is thread-safe and ids never
  // influence results).
  std::shared_ptr<const Workload> BuildWorkload(const ScenarioSpec& spec);
  // The one path behind Run and Sweep: serial workload-cache probe (missing
  // workloads built on the pool), serial memo probe, the simulating cells on
  // the pool, then serial memo publication in first-appearance order.
  std::vector<ScenarioResult> RunCells(std::span<const ScenarioSpec> specs, unsigned threads,
                                       const InspectFn& inspect);
  // Executes one cell against an already-resolved workload without touching
  // the cache or the memo, so concurrent cells never race or double-count
  // telemetry.
  ScenarioResult RunWithWorkload(const ScenarioSpec& spec, const Workload& workload,
                                 const InspectFn& inspect) const;

  // Guards the workload cache and its telemetry; cells themselves share no
  // mutable runner state beyond this and the memo below.
  mutable std::mutex workloads_mutex_;
  std::map<WorkloadKey, WorkloadFuture> workloads_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;

  // The result memo: spec digest -> finished result, immutable once
  // published (emplace never overwrites; a racing duplicate run is discarded
  // in favor of the published entry, which is bit-identical by the purity
  // contract). Guarded by memo_mutex_.
  mutable std::mutex memo_mutex_;
  std::map<torcrypto::Digest256, std::shared_ptr<const ScenarioResult>> results_;
  size_t memo_hits_ = 0;
  size_t memo_misses_ = 0;
  bool memoize_ = true;
  bool reference_ = false;
};

// The consumption plane's one path from published documents to a
// ClientAvailabilityResult. Integrates `load`'s demand against `documents`
// over [0, window_seconds) (torclients::SimulateClientLoad) and fills the
// summary, bytes per client-hour and, when a diff-capable cohort was served
// a diff, the full-document counterfactual. Run and RunTimeline each map
// their own documents onto the window and call this. `timeline`, when
// non-null, receives the slice timeline (RunTimeline walks it for its
// round-boundary snapshots). Closed-form post-processing: no simulator
// events, and a cost independent of the client count.
ClientAvailabilityResult EvaluateClientLoad(
    const torclients::ClientLoadSpec& load, std::vector<torclients::PublishedDocument> documents,
    double window_seconds, std::vector<torclients::AvailabilitySlice>* timeline = nullptr);

// Binary-searches the minimum per-victim bandwidth (bits/s, within
// [lo_bps, hi_bps]) at which `base` still succeeds while its first
// `victim_count` authorities are clamped for the whole horizon — the Figure 7
// measurement. The clamp joins the windows of a WindowedAttack in `base`
// rather than replacing them; any other schedule cannot be joined and yields
// NaN. `probes` halvings give ~hi/2^probes resolution. The probes run on
// `runner`, sharing its workload cache and result memo (a bandwidth probed
// twice, such as the final confirmation, is a memo hit); concurrent searches
// on one runner stay bit-identical to serial ones.
double FindBandwidthRequirement(ScenarioRunner& runner, const ScenarioSpec& base,
                                uint32_t victim_count, double lo_bps, double hi_bps,
                                int probes = 7);

}  // namespace torscenario

#endif  // SRC_SCENARIO_RUNNER_H_
