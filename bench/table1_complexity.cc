// Table 1: communication complexity comparison.
//
//   Current      O(n^2 d + n^2 k)   bounded synchrony, insecure
//   Synchronous  O(n^3 d + n^4 k)   bounded synchrony, interactive consistency
//   Ours         O(n^2 d + n^4 k)   partial synchrony, ICPS
//
// We measure total bytes on the wire while sweeping (a) the document size d
// (via the relay count, fixed n = 9) and (b) the authority count n (fixed d),
// then fit growth exponents in log-log space. The d-exponent should be ~1 for
// all three (complexities are linear in d); the n-exponent of the
// document-bearing traffic should be ~2 for Current/Ours and ~3 for
// Synchronous. The k (signature) terms are asymptotically dominant in n only
// for unrealistically large n; we report control-plane bytes separately.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/scenario/runner.h"

namespace {

const std::vector<std::string> kProtocols = {"current", "synchronous", "icps"};

// Message kinds that carry full documents (the d-terms).
bool IsDocumentKind(const std::string& kind) {
  return kind == "VOTE" || kind == "VOTE_FETCH" || kind == "SYNC_PROPOSE" ||
         kind == "SYNC_PACKED" || kind == "DOCUMENT" || kind == "DOC_FETCH";
}

struct TrafficSplit {
  double document_bytes = 0;
  double control_bytes = 0;
};

TrafficSplit Run(const std::string& protocol, uint32_t n, size_t relays) {
  torscenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.authority_count = n;
  spec.relay_count = relays;
  torscenario::ScenarioRunner runner;
  const auto result = runner.Run(spec);
  TrafficSplit split;
  for (const auto& [message_kind, bytes] : result.bytes_by_kind) {
    if (IsDocumentKind(message_kind)) {
      split.document_bytes += static_cast<double>(bytes);
    } else {
      split.control_bytes += static_cast<double>(bytes);
    }
  }
  return split;
}

}  // namespace

int main() {
  std::printf("=== Table 1: measured communication complexity ===\n\n");

  std::printf("Total bytes per run (n = 9, sweeping document size via relay count):\n");
  const std::vector<size_t> relay_grid = {500, 1000, 2000, 4000};
  torbase::Table by_d({"Relays", "Current (MB)", "Synchronous (MB)", "Ours (MB)"});
  std::map<std::string, std::vector<double>> doc_bytes_by_d;
  for (size_t relays : relay_grid) {
    std::vector<std::string> row = {torbase::Table::Int(static_cast<long long>(relays))};
    for (const std::string& protocol : kProtocols) {
      const auto split = Run(protocol, 9, relays);
      doc_bytes_by_d[protocol].push_back(split.document_bytes);
      row.push_back(torbase::Table::Num((split.document_bytes + split.control_bytes) / 1e6, 1));
    }
    by_d.AddRow(std::move(row));
    std::fflush(stdout);
  }
  by_d.Print(std::cout);

  std::vector<double> d_axis(relay_grid.begin(), relay_grid.end());
  std::printf("\nGrowth exponent of document traffic vs d (expected ~1 for all):\n");
  for (auto [protocol, name] : {std::pair{"current", "Current"},
                                {"synchronous", "Synchronous"},
                                {"icps", "Ours"}}) {
    std::printf("  %-12s d-exponent = %.2f\n", name,
                torbase::GrowthExponent(d_axis, doc_bytes_by_d[protocol]));
  }

  std::printf("\nDocument traffic vs authority count (relays fixed at 800):\n");
  const std::vector<uint32_t> n_grid = {4, 7, 10, 13};
  torbase::Table by_n({"n", "Current doc (MB)", "Sync doc (MB)", "Ours doc (MB)",
                       "Current ctrl (KB)", "Sync ctrl (KB)", "Ours ctrl (KB)"});
  std::map<std::string, std::vector<double>> doc_by_n;
  std::map<std::string, std::vector<double>> ctrl_by_n;
  for (uint32_t n : n_grid) {
    std::vector<std::string> row = {torbase::Table::Int(n)};
    std::vector<std::string> ctrl_cells;
    for (const std::string& protocol : kProtocols) {
      const auto split = Run(protocol, n, 800);
      doc_by_n[protocol].push_back(split.document_bytes);
      ctrl_by_n[protocol].push_back(split.control_bytes);
      row.push_back(torbase::Table::Num(split.document_bytes / 1e6, 1));
      ctrl_cells.push_back(torbase::Table::Num(split.control_bytes / 1e3, 1));
    }
    for (auto& cell : ctrl_cells) {
      row.push_back(std::move(cell));
    }
    by_n.AddRow(std::move(row));
    std::fflush(stdout);
  }
  by_n.Print(std::cout);

  std::vector<double> n_axis(n_grid.begin(), n_grid.end());
  std::printf("\nGrowth exponents vs n:\n");
  torbase::Table exponents({"Protocol", "doc-traffic n-exp (expected)", "ctrl-traffic n-exp"});
  exponents.AddRow({"Current",
                    torbase::Table::Num(torbase::GrowthExponent(n_axis, doc_by_n["current"]), 2) +
                        "  (~2: n^2 d)",
                    torbase::Table::Num(torbase::GrowthExponent(n_axis, ctrl_by_n["current"]), 2)});
  exponents.AddRow({"Synchronous",
                    torbase::Table::Num(torbase::GrowthExponent(n_axis, doc_by_n["synchronous"]), 2) +
                        "  (~3: n^3 d)",
                    torbase::Table::Num(torbase::GrowthExponent(n_axis, ctrl_by_n["synchronous"]), 2)});
  exponents.AddRow({"Ours",
                    torbase::Table::Num(torbase::GrowthExponent(n_axis, doc_by_n["icps"]), 2) +
                        "  (~2: n^2 d)",
                    torbase::Table::Num(torbase::GrowthExponent(n_axis, ctrl_by_n["icps"]), 2)});
  exponents.Print(std::cout);

  std::printf("\nTable 1 (paper):\n");
  std::printf("  Current      Bounded Synchrony  Insecure    O(n^2 d + n^2 k)\n");
  std::printf("  Synchronous  Bounded Synchrony  Secure(IC)  O(n^3 d + n^4 k)\n");
  std::printf("  Ours         Partial Synchrony  Secure(ICPS) O(n^2 d + n^4 k)\n");
  return 0;
}
