// Synthetic relay-population and vote-document generation.
//
// The paper builds its workloads from Tor Metrics history (Fig. 6) and
// tornettools-generated private networks. Without that proprietary pipeline we
// generate deterministic synthetic populations whose *document sizes* and
// *inter-authority disagreements* match the live network's shape, which is all
// the bandwidth experiments depend on ("Modelling substitutions" in
// EXPERIMENTS.md).
#ifndef SRC_TORDIR_GENERATOR_H_
#define SRC_TORDIR_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tordir/vote.h"

namespace tordir {

// Flag frequencies match the live network's; timestamps are anchored at
// 2025-01-01 00:00:00 UTC (generator.cc).
struct PopulationConfig {
  size_t relay_count = 7000;
  uint64_t seed = 1;
};

// The ground-truth relay population all authorities observe (with noise).
std::vector<RelayStatus> GeneratePopulation(const PopulationConfig& config);

struct VoteViewConfig {
  // Probability an authority misses a relay entirely (churn between scans).
  double p_missing = 0.02;
  // Probability each of Fast/Stable/Guard/HSDir is flipped in this authority's
  // view (measurement disagreement).
  double p_flag_flip = 0.03;
  // Fraction of authorities that run bandwidth scanners. Authorities with
  // index < ceil(measuring_fraction * n) report Measured values.
  double measuring_fraction = 0.67;
  // Relative stddev of bandwidth measurement noise.
  double measurement_noise = 0.10;
};

// Builds authority `authority`'s vote over `population`: drops some relays,
// perturbs some flags and (for measuring authorities) adds noisy Measured
// values. Deterministic given (population seed, authority, n).
VoteDocument MakeVote(torbase::NodeId authority, uint32_t authority_count,
                      const std::vector<RelayStatus>& population,
                      const PopulationConfig& population_config,
                      const VoteViewConfig& view_config = {});

// Builds all `n` votes at once.
std::vector<VoteDocument> MakeAllVotes(uint32_t authority_count,
                                       const std::vector<RelayStatus>& population,
                                       const PopulationConfig& population_config,
                                       const VoteViewConfig& view_config = {});

// --- synthetic round-to-round churn ----------------------------------------
// Deterministic consensus churn for the diff codec's benches and tests: the
// next round's document differs from `base` by a seeded set of changed,
// removed and added relay rows, with the validity window advanced by one
// directory period. Live-network churn is a few percent of rows per hour;
// change_fraction 0.01-0.03 reproduces that regime.
struct ConsensusChurnConfig {
  double change_fraction = 0.01;  // rows whose bandwidth/flags change
  double remove_fraction = 0.0;   // rows leaving the network
  double add_fraction = 0.0;      // new rows joining, as a fraction of base rows
  uint64_t seed = 1;
};

ConsensusDocument ChurnConsensus(const ConsensusDocument& base,
                                 const ConsensusChurnConfig& config);

// --- Figure 6: relay count over time ---------------------------------------
struct RelayCountPoint {
  std::string month;  // "2022-09" .. "2024-10"
  double relay_count;
};

// Deterministic synthetic reconstruction of the Tor Metrics relay-count series
// from September 2022 to October 2024. The series mean equals the paper's
// reported average of 7141.79 exactly.
std::vector<RelayCountPoint> RelayCountSeries();

// The average the paper reports under Figure 6.
constexpr double kPaperAverageRelayCount = 7141.79;

}  // namespace tordir

#endif  // SRC_TORDIR_GENERATOR_H_
