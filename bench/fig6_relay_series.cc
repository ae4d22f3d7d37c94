// Figure 6: the number of Tor relays over time (September 2022 - October 2024)
// with the series average. The paper reads this from Tor Metrics; we print the
// synthetic reconstruction whose mean matches the paper's reported 7141.79
// ("Modelling substitutions" in EXPERIMENTS.md documents the substitution).
//
// With --max-relays N the bench instead walks the relay axis itself (1k, 2k,
// ... doubling up to N, capped at 256k): for each count it builds the 9-vote
// workload (timed, so a workload-build regression is visible next to the
// protocol costs), reports the vote wire size that drives every bandwidth
// experiment, times the streaming codec both directions, times the flat-merge
// ComputeConsensus — the scaling run that interned-string aggregation plus
// the zero-allocation codec made affordable at 256k relays — and prices the
// consensus diff at typical churn (2% of rows touched per round): diff wire
// bytes plus ComputeConsensusDiff / ApplyConsensusDiff throughput.
// --smoke caps the axis at 4k with a single timing rep so CI stays fast.
//
// Usage: fig6_relay_series [--max-relays N] [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/common/table.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRelayAxisCap = 262144;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int RunRelayAxis(size_t max_relays, bool smoke) {
  constexpr uint32_t kAuthorities = 9;
  if (smoke) {
    max_relays = std::min<size_t>(max_relays, 4000);
  }
  max_relays = std::min(max_relays, kRelayAxisCap);

  std::printf("=== Figure 6 relay axis: directory cost up to %zu relays ===\n\n", max_relays);
  torbase::Table table({"Relays", "Build ms", "Vote KB", "Ser MB/s", "Parse MB/s",
                        "Consensus relays", "Aggregate ms", "Relays/s", "Diff KB",
                        "Dcompute MB/s", "Dapply MB/s"});
  bool ok = true;
  for (size_t relays = 1000; relays <= max_relays; relays *= 2) {
    tordir::PopulationConfig config;
    config.relay_count = relays;
    config.seed = 3;
    const auto build_start = Clock::now();
    const auto population = tordir::GeneratePopulation(config);
    const auto votes = tordir::MakeAllVotes(kAuthorities, population, config);
    const double build_seconds = SecondsSince(build_start);

    const int reps = smoke ? 1 : (relays >= 128000 ? 2 : (relays >= 32000 ? 3 : 10));

    std::string vote_text = tordir::SerializeVote(votes[0]);  // warm-up
    const size_t vote_bytes = vote_text.size();
    const auto serialize_start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      vote_text = tordir::SerializeVote(votes[0]);
    }
    const double serialize_seconds = SecondsSince(serialize_start) / reps;

    auto parsed = tordir::ParseVote(vote_text);  // warm-up
    const auto parse_start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      parsed = tordir::ParseVote(vote_text);
    }
    const double parse_seconds = SecondsSince(parse_start) / reps;
    ok = ok && parsed.ok() && *parsed == votes[0];

    auto consensus = tordir::ComputeConsensus(votes);  // warm-up
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      consensus = tordir::ComputeConsensus(votes);
    }
    const double seconds = SecondsSince(start) / reps;

    ok = ok && consensus.relays.size() > relays * 9 / 10 &&
         consensus.relays.size() <= relays;

    // The consensus diff at typical round-to-round churn: 1% of rows changed,
    // 0.5% removed, 0.5% added. Throughput is against the full target
    // document — the bytes a cache would otherwise serialize or re-fetch.
    tordir::ConsensusChurnConfig churn_config;
    churn_config.change_fraction = 0.01;
    churn_config.remove_fraction = 0.005;
    churn_config.add_fraction = 0.005;
    churn_config.seed = 3;
    const tordir::ConsensusDocument churned = tordir::ChurnConsensus(consensus, churn_config);
    const std::string base_text = tordir::SerializeConsensus(consensus);
    const std::string target_text = tordir::SerializeConsensus(churned);
    std::string diff = tordir::ComputeConsensusDiff(consensus, churned);  // warm-up
    const auto diff_compute_start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      diff = tordir::ComputeConsensusDiff(consensus, churned);
    }
    const double diff_compute_seconds = SecondsSince(diff_compute_start) / reps;
    auto patched = tordir::ApplyConsensusDiff(base_text, diff);  // warm-up
    const auto diff_apply_start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      patched = tordir::ApplyConsensusDiff(base_text, diff);
    }
    const double diff_apply_seconds = SecondsSince(diff_apply_start) / reps;
    ok = ok && patched.ok() && *patched == target_text;

    table.AddRow({torbase::Table::Num(static_cast<double>(relays), 0),
                  torbase::Table::Num(build_seconds * 1e3, 1),
                  torbase::Table::Num(static_cast<double>(vote_bytes) / 1024.0, 1),
                  torbase::Table::Num(static_cast<double>(vote_bytes) / serialize_seconds / 1e6, 0),
                  torbase::Table::Num(static_cast<double>(vote_bytes) / parse_seconds / 1e6, 0),
                  torbase::Table::Num(static_cast<double>(consensus.relays.size()), 0),
                  torbase::Table::Num(seconds * 1e3, 2),
                  torbase::Table::Num(static_cast<double>(relays) / seconds, 0),
                  torbase::Table::Num(static_cast<double>(diff.size()) / 1024.0, 1),
                  torbase::Table::Num(
                      static_cast<double>(target_text.size()) / diff_compute_seconds / 1e6, 0),
                  torbase::Table::Num(
                      static_cast<double>(target_text.size()) / diff_apply_seconds / 1e6, 0)});
  }
  table.Print(std::cout);
  if (!ok) {
    std::fprintf(stderr, "REGRESSION: relay-axis results off the expected band\n");
    return 1;
  }
  return 0;
}

int RunTimeSeries() {
  std::printf("=== Figure 6: number of Tor relays over time ===\n\n");
  const auto series = tordir::RelayCountSeries();
  torbase::Table table({"Month", "Relays"});
  double mean = 0.0;
  for (const auto& point : series) {
    table.AddRow({point.month, torbase::Table::Num(point.relay_count, 0)});
    mean += point.relay_count;
  }
  mean /= static_cast<double>(series.size());
  table.Print(std::cout);
  std::printf("\nSeries average: %.2f relays (paper reports %.2f)\n", mean,
              tordir::kPaperAverageRelayCount);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t max_relays = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-relays") == 0 && i + 1 < argc) {
      max_relays = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--max-relays N] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  if (max_relays > 0 || smoke) {
    return RunRelayAxis(max_relays > 0 ? max_relays : kRelayAxisCap, smoke);
  }
  return RunTimeSeries();
}
