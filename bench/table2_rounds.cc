// Table 2 / Appendix B.2: round complexity of the ICPS sub-protocols.
//
// The paper counts 2 rounds for dissemination, 2 for aggregation, and a
// protocol-specific count for agreement (5 for its Jolteon-style HotStuff,
// giving 9 total). Our agreement engine is basic HotStuff (8 message rounds in
// the good case: NEW_VIEW + 3 phases of leader-broadcast/vote + DECIDE), so
// the total here is 12; both accountings are printed. We verify the structural
// claim empirically by timing a healthy run: end-to-end completion beyond
// dissemination should be a small multiple of the one-way network latency.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/table.h"
#include "src/scenario/runner.h"

int main() {
  std::printf("=== Table 2: rounds of each ICPS sub-protocol ===\n\n");

  torbase::Table table({"Sub-protocol", "Rounds (paper)", "3-phase mode", "2-phase mode"});
  table.AddRow({"Dissemination", "2", "2  (DOCUMENT, PROPOSAL)", "2"});
  table.AddRow({"Agreement", "protocol-specific (Jolteon: 5)",
                "8  (NEW_VIEW + 3x(propose, vote) + DECIDE)",
                "6  (NEW_VIEW + 2x(propose, vote) + DECIDE)"});
  table.AddRow({"Aggregation", "2", "2  (DOC_REQUEST/RESPONSE; 0 on fast path)", "2"});
  table.AddRow({"Total", "9", "12", "10"});
  table.Print(std::cout);

  // Empirical check: with ample bandwidth the post-dissemination part of the
  // run costs round_count * one-way latency (50 ms hops here), so the 2-phase
  // commit path should complete exactly two hops earlier. The two commit-path
  // runs are independent cells of one parallel sweep sharing a workload.
  std::printf("\nEmpirical good case (500 relays, 1 Gbit/s, 50 ms hops):\n");
  std::vector<torscenario::ScenarioSpec> specs;
  for (bool two_phase : {false, true}) {
    torscenario::ScenarioSpec spec;
    spec.protocol = "icps";
    spec.relay_count = 500;
    spec.bandwidth_bps = 1e9;
    spec.two_phase_agreement = two_phase;
    specs.push_back(spec);
  }
  torscenario::ScenarioRunner runner;
  torscenario::SweepOptions sweep_options;
  sweep_options.threads = 0;  // hardware concurrency
  const auto results = runner.Sweep(specs, sweep_options);
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %-8s end-to-end %.2f s (~%.0f one-way hops), %u/9 authorities valid\n",
                i == 1 ? "2-phase:" : "3-phase:", results[i].latency_seconds,
                results[i].latency_seconds / 0.05, results[i].valid_count);
  }
  return 0;
}
