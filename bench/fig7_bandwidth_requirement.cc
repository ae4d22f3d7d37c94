// Figure 7: minimum per-victim bandwidth at which the current directory
// protocol still succeeds while 5 of 9 authorities are throttled, as a
// function of the number of relays. The paper finds the requirement grows
// linearly (≈10 Mbit/s at 8,000 relays) and that the 0.5 Mbit/s left under a
// DDoS flood is far below it at every relay count.
//
// The per-relay-count binary searches are independent, so they run
// concurrently on a thread pool, all sharing one (mutex-guarded) scenario
// runner; each search is internally sequential, so results are identical to a
// serial sweep.
// After the requirement table, the with-diffs serving series re-prices the
// *defender's* bytes at each relay count: the full consensus a cache ships to
// every client hourly versus the consensus diff (src/tordir/consensus_diff.h)
// at typical 1%-changed + 0.5%-added + 0.5%-removed row churn, and the cache
// bandwidth needed to serve 5M clients each way.
//
// Exits non-zero unless the figure's two claims hold: the 0.5 Mbit/s left
// under attack is below the requirement at every relay count, and the
// requirement grows linearly (the fit's R² is at least kMinLinearR2).
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/attack/ddos.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/scenario/runner.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

constexpr double kMinLinearR2 = 0.99;

int main() {
  std::printf("=== Figure 7: bandwidth required by an attacked authority ===\n");
  std::printf("(current protocol, 5 of 9 authorities bandwidth-limited for the whole run)\n\n");

  const std::vector<size_t> relay_counts = {1000, 2500, 5000, 7500, 10000};

  torscenario::ScenarioRunner runner;  // shared workload cache across searches
  torbase::ThreadPool pool;
  std::printf("running %zu binary searches on %u thread(s)...\n\n", relay_counts.size(),
              pool.thread_count());

  std::vector<double> required_bps(relay_counts.size(), 0.0);
  pool.ParallelFor(relay_counts.size(), [&](size_t i) {
    torscenario::ScenarioSpec spec;
    spec.protocol = "current";
    spec.relay_count = relay_counts[i];
    spec.horizon = torbase::Minutes(15);
    required_bps[i] = torscenario::FindBandwidthRequirement(
        runner, spec, /*victim_count=*/5, /*lo_bps=*/0.2e6, /*hi_bps=*/25e6, /*probes=*/7);
  });

  torbase::Table table({"Relays", "Required bandwidth (Mbit/s)", "Under attack (Mbit/s)",
                        "Attack succeeds"});
  std::vector<double> xs;
  std::vector<double> ys;
  bool attack_works_everywhere = true;
  for (size_t i = 0; i < relay_counts.size(); ++i) {
    xs.push_back(static_cast<double>(relay_counts[i]));
    ys.push_back(required_bps[i] / 1e6);
    const bool attack_works = torattack::kUnderAttackBps < required_bps[i];
    attack_works_everywhere = attack_works_everywhere && attack_works;
    table.AddRow({torbase::Table::Int(static_cast<long long>(relay_counts[i])),
                  torbase::Table::Num(required_bps[i] / 1e6, 2),
                  torbase::Table::Num(torattack::kUnderAttackBps / 1e6, 1),
                  attack_works ? "yes" : "NO"});
  }
  table.Print(std::cout);

  // The searches run on the shared runner's result memo: every probe spec is
  // digested and memoized, so each search's final invariant confirmation (and
  // any probe the grid revisits) is served from the memo instead of paying a
  // re-simulation. Surface the redundancy next to the table.
  const size_t memo_runs = runner.result_memo_hits() + runner.result_memo_misses();
  std::printf("\nresult memo: %zu of %zu probe runs served from the memo (%zu simulated)\n",
              runner.result_memo_hits(), memo_runs, runner.result_memo_misses());

  // With-diffs serving series: the same relay axis priced in served bytes.
  // Steady-state clients (95%) fetch hourly; 80% of them are diff-capable
  // (the client_availability cohort); bootstraps always need the full
  // document. Serving rate = 5M clients x mean fetch size / hour.
  {
    constexpr double kClients = 5'000'000.0;
    constexpr double kBootstrapFraction = 0.05;
    constexpr double kDiffCapableFraction = 0.8;
    std::printf("\n=== With-diffs serving series (1%% churn/round, 5M clients hourly) ===\n\n");
    torbase::Table serving({"Relays", "Consensus KB", "Diff KB", "Ratio", "Serve full (Mbit/s)",
                            "Serve w/ diffs (Mbit/s)"});
    for (const size_t relays : relay_counts) {
      tordir::PopulationConfig config;
      config.relay_count = relays;
      config.seed = 3;
      const auto population = tordir::GeneratePopulation(config);
      tordir::ConsensusDocument base =
          tordir::ComputeConsensus(tordir::MakeAllVotes(9, population, config));
      for (uint32_t a = 0; a < 9; ++a) {
        torcrypto::Signature sig;
        sig.signer = a;
        sig.bytes.fill(static_cast<uint8_t>(0xC0 + a));
        base.signatures.push_back(sig);
      }
      tordir::ConsensusChurnConfig churn;
      churn.change_fraction = 0.01;
      churn.remove_fraction = 0.005;
      churn.add_fraction = 0.005;
      churn.seed = 3;
      const tordir::ConsensusDocument next = tordir::ChurnConsensus(base, churn);
      const double full_bytes = static_cast<double>(tordir::SerializeConsensus(next).size());
      const double diff_bytes = static_cast<double>(tordir::ComputeConsensusDiff(base, next).size());
      const double steady = kClients * (1.0 - kBootstrapFraction);
      const double boot = kClients * kBootstrapFraction;
      const double full_rate_bps = kClients * full_bytes * 8.0 / 3600.0;
      const double diff_rate_bps =
          (steady * (kDiffCapableFraction * diff_bytes + (1.0 - kDiffCapableFraction) * full_bytes) +
           boot * full_bytes) *
          8.0 / 3600.0;
      serving.AddRow({torbase::Table::Int(static_cast<long long>(relays)),
                      torbase::Table::Num(full_bytes / 1024.0, 1),
                      torbase::Table::Num(diff_bytes / 1024.0, 1),
                      torbase::Table::Num(diff_bytes / full_bytes, 4),
                      torbase::Table::Num(full_rate_bps / 1e6, 0),
                      torbase::Table::Num(diff_rate_bps / 1e6, 0)});
    }
    serving.Print(std::cout);
    std::printf("\nThe diff-capable cohort cuts the cache tier's steady serving load ~4x at\n"
                "every relay count; the defender's bytes stop scaling with the full document.\n");
  }

  const auto fit = torbase::FitLine(xs, ys);
  std::printf("\nLinear fit: requirement ≈ %.3f Mbit/s per 1000 relays (R² = %.3f)\n",
              fit.slope * 1000.0, fit.r2);
  std::printf("Paper: requirement grows linearly, ≈10 Mbit/s at 8,000 relays;\n");
  std::printf("0.5 Mbit/s residual bandwidth under attack is below the requirement at every "
              "relay count.\n");
  if (!attack_works_everywhere) {
    std::fprintf(stderr, "FAIL: the residual bandwidth meets the requirement at some relay count\n");
    return 1;
  }
  if (fit.r2 < kMinLinearR2) {
    std::fprintf(stderr, "FAIL: the requirement is not linear in the relay count (R² %.3f < %.2f)\n",
                 fit.r2, kMinLinearR2);
    return 1;
  }
  return 0;
}
