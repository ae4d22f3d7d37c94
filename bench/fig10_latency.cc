// Figure 10: latency of generating a consensus document for the Current
// protocol, Luo et al.'s Synchronous protocol and Ours, across bandwidth
// settings (50/20/10/1/0.5 Mbit/s) and relay counts. "fail" marks runs where
// no authority assembled a valid consensus — the thick vertical lines in the
// paper's figure.
//
// The whole grid is materialized as ScenarioSpecs up front and executed by one
// parallel ScenarioRunner::Sweep: cells sharing (relay_count, seed) reuse the
// generated population/votes across all bandwidth settings and protocols, and
// independent cells run concurrently (bit-identical to a serial sweep).
//
// Paper expectations: Current fails between 9,000 and 10,000 relays at
// 10 Mbit/s; Synchronous fails beyond ~2,000 relays at 10 Mbit/s; both fail at
// 1 and 0.5 Mbit/s even with 1,000 relays; Ours completes everywhere, with
// second-scale overhead at high bandwidth and minute-scale latency at
// 0.5 Mbit/s.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/runner.h"

namespace {

std::string Cell(const torscenario::ScenarioResult& result) {
  if (!result.succeeded) {
    return "fail";
  }
  return torbase::Table::Num(result.latency_seconds, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const bool full = mode == "--full";
  const bool smoke = mode == "--smoke";  // tiny grid: exercises the pipeline in seconds
  std::printf("=== Figure 10: consensus latency (seconds) by protocol / bandwidth / relays ===\n");
  std::printf("('fail' = no valid consensus; paper shows these as thick vertical lines)\n\n");

  const std::vector<double> bandwidths_mbps = {50, 20, 10, 1, 0.5};
  const std::vector<size_t> relay_counts =
      full    ? std::vector<size_t>{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
      : smoke ? std::vector<size_t>{200, 400}
              : std::vector<size_t>{1000, 2500, 5000, 7500, 10000};
  const std::vector<std::string> protocols = {"current", "synchronous", "icps"};

  std::vector<torscenario::ScenarioSpec> specs;
  for (double bw : bandwidths_mbps) {
    for (size_t relays : relay_counts) {
      for (const std::string& protocol : protocols) {
        torscenario::ScenarioSpec spec;
        spec.name = "fig10";
        spec.protocol = protocol;
        spec.relay_count = relays;
        spec.bandwidth_bps = bw * 1e6;
        spec.horizon = torbase::Hours(4);
        specs.push_back(std::move(spec));
      }
    }
  }

  torscenario::SweepOptions sweep_options;
  sweep_options.threads = torbase::ThreadPool::DefaultThreads();
  std::printf("running %zu grid cells on %u thread(s)...\n\n", specs.size(),
              sweep_options.threads);

  torscenario::ScenarioRunner runner;
  const auto results = runner.Sweep(specs, sweep_options);

  size_t cell = 0;
  for (double bw : bandwidths_mbps) {
    std::printf("--- %.1f Mbit/s ---\n", bw);
    std::vector<std::string> headers = {"Relays"};
    for (const std::string& protocol : protocols) {
      headers.push_back(std::string(torproto::GetProtocol(protocol).display_name()));
    }
    torbase::Table table(std::move(headers));
    for (size_t relays : relay_counts) {
      std::vector<std::string> row = {torbase::Table::Int(static_cast<long long>(relays))};
      for (size_t p = 0; p < protocols.size(); ++p) {
        row.push_back(Cell(results[cell++]));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf("Workload cache: %zu generations served %zu grid cells.\n",
              runner.workload_cache_misses(),
              runner.workload_cache_misses() + runner.workload_cache_hits());
  std::printf("Paper shape check: Current fails only at 10 Mbit/s near 10,000 relays;\n"
              "Synchronous fails at a few-times-smaller relay counts; both fail at 1/0.5\n"
              "Mbit/s with 1,000 relays; Ours succeeds everywhere (minutes at 0.5 Mbit/s).\n");
  return 0;
}
