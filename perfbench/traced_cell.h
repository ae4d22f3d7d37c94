// The traced cell: one scenario cell composed from the same public calls
// ScenarioRunner::RunWithWorkload makes, with a wall-clock span around each
// layer, plus kernel replays on the cell's own documents. Spans are recorded
// here, around calls into the library, never inside it; the benchmark checks
// that the composed result is BitIdentical to ScenarioRunner::Run.
#ifndef PERFBENCH_TRACED_CELL_H_
#define PERFBENCH_TRACED_CELL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/scenario/scenario.h"
#include "src/tordir/relay.h"
#include "src/tordir/vote.h"

namespace perfbench {

// The public-API twin of the runner's private Workload: a generated
// population, every authority's vote with its serialized bytes and digest,
// and the digest-keyed parsed-vote cache.
struct TracedWorkload {
  std::vector<tordir::RelayStatus> population;
  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  std::vector<std::shared_ptr<const std::string>> vote_texts;
  std::vector<torcrypto::Digest256> vote_digests;
  std::shared_ptr<const tordir::VoteCache> vote_cache;
};

// Generator, SerializeVote, one Sha256Batch call and the VoteCache build.
TracedWorkload BuildTracedWorkload(size_t relay_count, uint64_t seed, uint32_t authority_count);

// Milliseconds spent in each layer of one traced cell.
struct CellSpans {
  double harness_setup_ms = 0.0;  // Harness, KeyDirectory, MakeAuthority, attack, churn
  double event_loop_ms = 0.0;     // StartAll + RunUntil
  double probe_ms = 0.0;          // ProbeOutcome / ProbeConsensus
  double health_ms = 0.0;         // HealthMonitor feed and Analyze
  double client_plane_ms = 0.0;   // SerializeConsensus, ComputeConsensusDiff, SimulateClientLoad
  double teardown_ms = 0.0;       // harness and actor destruction
  double wall_ms = 0.0;           // the whole cell, replay collection excluded

  double Covered() const {
    return harness_setup_ms + event_loop_ms + probe_ms + health_ms + client_plane_ms +
           teardown_ms;
  }
};

// Kernel replays: each kernel run on the cell's own documents as many times
// as the cell's admission record implies.
struct ReplayTimes {
  double vote_digest_ms = 0.0;          // Digest256::Of per admitted delivery
  double admit_hit_ms = 0.0;            // AdmitVote, cache hit, per admitted canonical delivery
  double admit_miss_ms = 0.0;           // AdmitVote on every non-cached (faulty) delivery
  double parse_vote_ms = 0.0;           // ParseVote on the same non-cached deliveries
  double aggregate_ms = 0.0;            // ComputeConsensus per consensus holder
  double serialize_consensus_ms = 0.0;  // SerializeConsensus per consensus holder

  double Total() const {
    return vote_digest_ms + admit_hit_ms + admit_miss_ms + parse_vote_ms + aggregate_ms +
           serialize_consensus_ms;
  }
};

struct TracedCell {
  torscenario::ScenarioResult result;
  CellSpans spans;
  ReplayTimes replay;
  // Peak resident-set growth over the event loop, in MB.
  double event_loop_rss_growth_mb = 0.0;
  uint64_t deliveries = 0;  // votes admitted, summed over observers
  uint64_t rejects = 0;     // votes refused at admission, summed over observers
};

TracedCell RunTracedCell(const torscenario::ScenarioSpec& spec, const TracedWorkload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_CELL_H_
