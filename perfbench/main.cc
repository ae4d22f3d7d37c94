// perfbench: the repository benchmark. Measures the simulator end to end
// through ScenarioRunner::Run / Sweep / RunTimeline (--trace 0), or layer by
// layer from a separate traced run (--trace 1), and checks every result
// against pinned fingerprints and the paper's contrast.
//
// Usage: perfbench --workload round-8k|attack-grid|week-timeline [--seed N]
//                  [--seconds S] [--trace 0|1] [--reference FILE] [--smoke]
//                  [--record]
//   --reference FILE  pinned fingerprints (reference.txt beside this file)
//   --smoke           shrunken workloads, for the benchmark's own tests
//   --record          print "<workload> <seed> <key> <fingerprint>" lines for
//                     one cold pass instead of measuring
//
// Progress goes to stderr; the last line on stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 iff correct.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fingerprint.h"
#include "src/crypto/digest.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec_digest.h"
#include "src/scenario/timeline.h"
#include "traced_cell.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using torscenario::ScenarioResult;
using torscenario::ScenarioRunner;
using torscenario::ScenarioSpec;
using torscenario::SweepOptions;

// Cold passes per run; setup_s reports their median.
constexpr int kSetupPasses = 3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned Threads() { return std::max(1u, std::thread::hardware_concurrency()); }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool record = false;
  std::string reference;
};

// What one pass over a workload produced and cost.
struct Pass {
  double wall_s = 0.0;
  // Per protocol: the wall time of one of its cells (or timeline rounds).
  std::map<std::string, double> cell_ms;
  size_t rounds = 0;     // consensus rounds delivered (memo-served included)
  size_t simulated = 0;  // cells that actually simulated
  Fingerprints fingerprints;
  std::vector<std::string> contrast_failures;
};

// --- the paper's contrast ----------------------------------------------------
// Degenerate runs (nothing publishes, nothing is detected) must not pass.

void CheckRound(const std::string& label, const ScenarioResult& result, Pass& pass) {
  if (!result.succeeded) {
    pass.contrast_failures.push_back(label + ": honest round did not publish");
  }
}

void CheckGridCell(const Cell& cell, const ScenarioResult& result, Pass& pass) {
  if (cell.label == std::string("current/") + kKnockoutShape && result.succeeded) {
    pass.contrast_failures.push_back(cell.label + ": current survived the 5-minute flood");
  }
  if (cell.protocol == "icps" && !result.succeeded) {
    pass.contrast_failures.push_back(cell.label + ": icps failed to publish");
  }
  if (result.byzantine_count != cell.spec.byzantine.behaviors.size() ||
      result.faults_detected != result.byzantine_count) {
    pass.contrast_failures.push_back(cell.label + ": byzantine faults injected " +
                                     std::to_string(result.byzantine_count) + ", detected " +
                                     std::to_string(result.faults_detected));
  }
}

void CheckTimeline(const TimelineCase& timeline, const torscenario::TimelineResult& result,
                   bool smoke, Pass& pass) {
  for (size_t r = 0; r < result.rounds.size(); ++r) {
    const bool knocked_out = r >= KnockoutFirstRound() && r <= KnockoutLastRound(smoke);
    const bool published = result.rounds[r].succeeded;
    if (timeline.protocol == "current" && knocked_out && published) {
      pass.contrast_failures.push_back("current round " + std::to_string(r) +
                                       " published under the knockout");
    }
    if (timeline.protocol == "icps" && !published) {
      pass.contrast_failures.push_back("icps round " + std::to_string(r) + " did not publish");
    }
  }
}

// --- workloads as passes -----------------------------------------------------

std::vector<ScenarioSpec> SpecsOf(const std::vector<Cell>& cells) {
  std::vector<ScenarioSpec> specs;
  for (const Cell& cell : cells) {
    specs.push_back(cell.spec);
  }
  return specs;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // One pass on `runner`; the first pass on a fresh runner is the cold pass.
  virtual Pass Run(ScenarioRunner& runner) = 0;
  // The cells whose composition the traced run checks against Run.
  virtual std::vector<Cell> TracedCells() = 0;
  // Layer metrics only this workload exercises, filled by the traced run.
  virtual void TraceExtras(std::map<std::string, double>& metrics) { (void)metrics; }
  // Specs this workload digests (timeline.spec_digest_ms).
  virtual std::vector<ScenarioSpec> AllSpecs() = 0;
  // Threads the workload's sweeps use.
  virtual unsigned threads() const { return Threads(); }
};

class Round8k : public Workload {
 public:
  Round8k(uint64_t seed, bool smoke) : cells_(Round8kCells(seed, smoke)) {}

  Pass Run(ScenarioRunner& runner) override {
    runner.set_memoize(false);
    Pass pass;
    Fingerprinter fingerprinter;
    const auto start = Clock::now();
    for (const Cell& cell : cells_) {
      const auto cell_start = Clock::now();
      const ScenarioResult result = runner.Run(cell.spec);
      pass.cell_ms[cell.protocol] = 1e3 * SecondsSince(cell_start);
      pass.fingerprints[cell.label] = fingerprinter.Of(result);
      CheckRound(cell.label, result, pass);
    }
    pass.wall_s = SecondsSince(start);
    pass.rounds = pass.simulated = cells_.size();
    return pass;
  }
  std::vector<Cell> TracedCells() override { return cells_; }
  std::vector<ScenarioSpec> AllSpecs() override { return SpecsOf(cells_); }
  unsigned threads() const override { return 1; }

 private:
  std::vector<Cell> cells_;
};

class AttackGrid : public Workload {
 public:
  AttackGrid(uint64_t seed, bool smoke) : cells_(AttackGridCells(seed, smoke)) {}

  // One Sweep per protocol over its six shapes, so each protocol's cost on
  // the attack paths is attributed to it.
  Pass Run(ScenarioRunner& runner) override {
    runner.set_memoize(false);
    Pass pass;
    Fingerprinter fingerprinter;
    const auto start = Clock::now();
    for (const std::string& protocol : Protocols()) {
      std::vector<const Cell*> cells;
      std::vector<ScenarioSpec> specs;
      for (const Cell& cell : cells_) {
        if (cell.protocol == protocol) {
          cells.push_back(&cell);
          specs.push_back(cell.spec);
        }
      }
      const auto sweep_start = Clock::now();
      const std::vector<ScenarioResult> results = runner.Sweep(specs, SweepOptions{Threads()});
      pass.cell_ms[protocol] = 1e3 * SecondsSince(sweep_start) / static_cast<double>(specs.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        pass.fingerprints[cells[i]->label] = fingerprinter.Of(results[i]);
        CheckGridCell(*cells[i], results[i], pass);
      }
    }
    pass.wall_s = SecondsSince(start);
    pass.rounds = pass.simulated = cells_.size();
    return pass;
  }
  std::vector<Cell> TracedCells() override { return cells_; }
  std::vector<ScenarioSpec> AllSpecs() override { return SpecsOf(cells_); }

 private:
  std::vector<Cell> cells_;
};

class WeekTimeline : public Workload {
 public:
  WeekTimeline(uint64_t seed, bool smoke) : timelines_(WeekTimelines(seed, smoke)), smoke_(smoke) {}

  // Each timeline runs with an empty result memo, as on a fresh runner; the
  // workload cache stays warm after the cold pass.
  Pass Run(ScenarioRunner& runner) override {
    runner.set_memoize(true);
    Pass pass;
    Fingerprinter fingerprinter;
    const auto start = Clock::now();
    for (const TimelineCase& timeline : timelines_) {
      runner.ClearResultMemo();
      const size_t misses_before = runner.result_memo_misses();
      const auto timeline_start = Clock::now();
      const torscenario::TimelineResult result =
          runner.RunTimeline(timeline.spec, SweepOptions{Threads()});
      pass.cell_ms[timeline.protocol] =
          1e3 * SecondsSince(timeline_start) / static_cast<double>(timeline.spec.rounds);
      pass.rounds += result.rounds.size();
      pass.simulated += runner.result_memo_misses() - misses_before;
      fingerprinter.AddTimeline(timeline.protocol, result, pass.fingerprints);
      CheckTimeline(timeline, result, smoke_, pass);
    }
    pass.wall_s = SecondsSince(start);
    return pass;
  }

  // The distinct rounds each timeline simulates (one cell per spec digest).
  std::vector<Cell> TracedCells() override {
    std::vector<Cell> cells;
    for (const TimelineCase& timeline : timelines_) {
      std::set<torcrypto::Digest256> seen;
      const std::vector<ScenarioSpec> specs = torscenario::BuildTimelineRoundSpecs(timeline.spec);
      for (size_t r = 0; r < specs.size(); ++r) {
        if (seen.insert(torscenario::SpecDigest(specs[r])).second) {
          char label[64];
          std::snprintf(label, sizeof(label), "%s/r%03zu", timeline.protocol.c_str(), r);
          cells.push_back(Cell{label, timeline.protocol, specs[r]});
        }
      }
    }
    return cells;
  }

  std::vector<ScenarioSpec> AllSpecs() override {
    std::vector<ScenarioSpec> specs;
    for (const TimelineCase& timeline : timelines_) {
      for (ScenarioSpec& spec : torscenario::BuildTimelineRoundSpecs(timeline.spec)) {
        specs.push_back(std::move(spec));
      }
    }
    return specs;
  }

  // Sweep and stitch split: a fresh runner's Sweep over the round specs
  // (workload build, memo probe and the distinct simulations), then
  // RunTimeline on that now-warm runner (memo hits plus the stitch).
  void TraceExtras(std::map<std::string, double>& metrics) override {
    double sweep_ms = 0.0;
    double stitch_ms = 0.0;
    size_t hits = 0;
    size_t probes = 0;
    for (const TimelineCase& timeline : timelines_) {
      ScenarioRunner runner;
      const std::vector<ScenarioSpec> specs = torscenario::BuildTimelineRoundSpecs(timeline.spec);
      auto start = Clock::now();
      runner.Sweep(specs, SweepOptions{Threads()});
      sweep_ms += 1e3 * SecondsSince(start);
      hits += runner.result_memo_hits();
      probes += runner.result_memo_hits() + runner.result_memo_misses();
      start = Clock::now();
      runner.RunTimeline(timeline.spec, SweepOptions{Threads()});
      stitch_ms += 1e3 * SecondsSince(start);
    }
    metrics["timeline.sweep_ms"] = sweep_ms;
    metrics["timeline.stitch_ms"] = stitch_ms;
    metrics["memo.hit_rate"] = probes > 0 ? static_cast<double>(hits) / probes : 0.0;
  }

 private:
  std::vector<TimelineCase> timelines_;
  bool smoke_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  if (name == "round-8k") {
    return std::make_unique<Round8k>(seed, smoke);
  }
  if (name == "attack-grid") {
    return std::make_unique<AttackGrid>(seed, smoke);
  }
  if (name == "week-timeline") {
    return std::make_unique<WeekTimeline>(seed, smoke);
  }
  return nullptr;
}

// --- correctness bookkeeping -------------------------------------------------

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool self_checks_ok = true;

  // Counts a pass's fingerprints against the pinned reference (when this
  // seed has one) and against the first pass of this run (determinism).
  void Check(const Pass& pass, const Fingerprints* pinned, const Fingerprints& first) {
    attempted += pass.fingerprints.size();
    std::set<std::string> bad;
    for (const std::string& key : Mismatches(first, pass.fingerprints)) {
      bad.insert(key);
    }
    if (pinned != nullptr) {
      for (const std::string& key : Mismatches(*pinned, pass.fingerprints)) {
        bad.insert(key);
      }
    }
    for (const std::string& key : bad) {
      std::fprintf(stderr, "MISMATCH %s\n", key.c_str());
    }
    failed += bad.size();
    for (const std::string& failure : pass.contrast_failures) {
      std::fprintf(stderr, "CONTRAST %s\n", failure.c_str());
      self_checks_ok = false;
    }
  }

  void Fail(const std::string& what) {
    std::fprintf(stderr, "SELF-CHECK %s\n", what.c_str());
    self_checks_ok = false;
  }

  bool correct() const { return failed == 0 && self_checks_ok && attempted > 0; }
};

struct Metric {
  double value;
  const char* unit;
};

int PrintResult(const Verdict& verdict, const std::map<std::string, Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += verdict.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted);
  json += ", \"failed\": " + std::to_string(verdict.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return verdict.correct() ? 0 : 1;
}

// --- --trace 0: end-to-end metrics -------------------------------------------

int MeasureEndToEnd(const Options& options, Workload& workload, const Fingerprints* pinned) {
  Verdict verdict;
  Fingerprints first;
  std::vector<double> setup_s;
  std::unique_ptr<ScenarioRunner> runner;
  const int setup_passes = options.smoke ? 1 : kSetupPasses;
  for (int i = 0; i < setup_passes; ++i) {
    runner = std::make_unique<ScenarioRunner>();
    const Pass cold = workload.Run(*runner);
    if (i == 0) {
      first = cold.fingerprints;
    }
    verdict.Check(cold, pinned, first);
    setup_s.push_back(cold.wall_s);
    std::fprintf(stderr, "cold pass %d: %.3f s\n", i, cold.wall_s);
  }

  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(workload.Run(*runner));
    verdict.Check(passes.back(), pinned, first);
    std::fprintf(stderr, "warm pass %zu: %.3f s\n", passes.size() - 1, passes.back().wall_s);
  } while (SecondsSince(start) < options.seconds);

  std::map<std::string, Metric> metrics;
  metrics["setup_s"] = {Median(setup_s), "s"};
  for (const std::string& protocol : Protocols()) {
    std::vector<double> samples;
    for (const Pass& pass : passes) {
      if (const auto it = pass.cell_ms.find(protocol); it != pass.cell_ms.end()) {
        samples.push_back(it->second);
      }
    }
    metrics["cell_ms." + protocol] = {Median(samples), "ms"};
  }
  std::vector<double> cells_per_s;
  std::vector<double> rounds_per_s;
  for (const Pass& pass : passes) {
    cells_per_s.push_back(static_cast<double>(pass.simulated) / pass.wall_s);
    rounds_per_s.push_back(static_cast<double>(pass.rounds) / pass.wall_s);
  }
  metrics["cells_per_s"] = {Median(cells_per_s), "1/s"};
  metrics["rounds_per_s"] = {Median(rounds_per_s), "1/s"};
  metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  const double failed_share =
      verdict.attempted > 0 ? static_cast<double>(verdict.failed) / verdict.attempted : 1.0;
  metrics["correct_share"] = {1.0 - failed_share, "fraction"};
  return PrintResult(verdict, metrics);
}

// --- --trace 1: per-layer metrics --------------------------------------------

int MeasureLayers(const Options& options, Workload& workload, const Fingerprints* pinned) {
  Verdict verdict;
  std::map<std::string, double> values;
  std::vector<Cell> cells = workload.TracedCells();

  // Workload builds, once per distinct key, through the public generator,
  // codec and hashing calls.
  std::map<std::tuple<size_t, uint64_t, uint32_t>, TracedWorkload> built;
  auto start = Clock::now();
  for (const Cell& cell : cells) {
    const auto key = std::make_tuple(cell.spec.relay_count, cell.spec.seed,
                                     cell.spec.authority_count);
    if (built.find(key) == built.end()) {
      built.emplace(key, BuildTracedWorkload(cell.spec.relay_count, cell.spec.seed,
                                             cell.spec.authority_count));
    }
  }
  values["span.workload_build_ms"] = 1e3 * SecondsSince(start);

  // The untraced reference: Run on a warm, memo-off runner.
  ScenarioRunner runner;
  runner.set_memoize(false);
  runner.Run(cells.front().spec);  // builds the runner's workload cache
  Fingerprinter fingerprinter;
  Pass reference;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  double min_coverage = 1.0;
  uint64_t bytes_sent = 0;
  ReplayTimes replay;
  for (const std::string& protocol : Protocols()) {
    for (const char* span : {"span.harness_setup_ms.", "span.event_loop_ms.", "span.probe_ms.",
                             "span.health_ms.", "span.client_plane_ms.", "span.teardown_ms.",
                             "event_loop.rss_growth_mb."}) {
      values[span + protocol] = 0.0;
    }
  }
  values["admission.deliveries"] = 0.0;
  values["admission.rejects"] = 0.0;
  for (const Cell& cell : cells) {
    const TracedWorkload& traced_workload = built.at(
        std::make_tuple(cell.spec.relay_count, cell.spec.seed, cell.spec.authority_count));
    const TracedCell traced = RunTracedCell(cell.spec, traced_workload);
    start = Clock::now();
    const ScenarioResult result = runner.Run(cell.spec);
    const double cell_untraced_ms = 1e3 * SecondsSince(start);
    untraced_ms += cell_untraced_ms;
    traced_ms += traced.spans.wall_ms;
    if (!torscenario::BitIdentical(traced.result, result)) {
      verdict.Fail(cell.label + ": traced composition is not BitIdentical to Run");
    }
    const double coverage = traced.spans.Covered() / traced.spans.wall_ms;
    min_coverage = std::min(min_coverage, coverage);
    if (coverage < 0.95) {
      verdict.Fail(cell.label + ": spans cover only " + std::to_string(coverage));
    }
    reference.fingerprints[cell.label] = fingerprinter.Of(result);
    const std::string& p = cell.protocol;
    values["span.harness_setup_ms." + p] += traced.spans.harness_setup_ms;
    values["span.event_loop_ms." + p] += traced.spans.event_loop_ms;
    values["span.probe_ms." + p] += traced.spans.probe_ms;
    values["span.health_ms." + p] += traced.spans.health_ms;
    values["span.client_plane_ms." + p] += traced.spans.client_plane_ms;
    values["span.teardown_ms." + p] += traced.spans.teardown_ms;
    double& rss = values["event_loop.rss_growth_mb." + p];
    rss = std::max(rss, traced.event_loop_rss_growth_mb);
    values["admission.deliveries"] += static_cast<double>(traced.deliveries);
    values["admission.rejects"] += static_cast<double>(traced.rejects);
    bytes_sent += result.total_bytes_sent;
    replay.vote_digest_ms += traced.replay.vote_digest_ms;
    replay.admit_hit_ms += traced.replay.admit_hit_ms;
    replay.admit_miss_ms += traced.replay.admit_miss_ms;
    replay.parse_vote_ms += traced.replay.parse_vote_ms;
    replay.aggregate_ms += traced.replay.aggregate_ms;
    replay.serialize_consensus_ms += traced.replay.serialize_consensus_ms;
    std::fprintf(stderr, "traced %-36s %9.1f ms (untraced %9.1f ms, coverage %.4f)\n",
                 cell.label.c_str(), traced.spans.wall_ms, cell_untraced_ms, coverage);
  }
  verdict.attempted += cells.size();

  // Traced cells are keyed like the end-to-end fingerprints for round-8k and
  // attack-grid; week-timeline pins rounds, which the pass below checks.
  if (pinned != nullptr && options.workload != "week-timeline") {
    verdict.Check(reference, pinned, reference.fingerprints);
  }

  double event_loop_ms = 0.0;
  for (const std::string& protocol : Protocols()) {
    event_loop_ms += values["span.event_loop_ms." + protocol];
  }
  values["replay.vote_digest_ms"] = replay.vote_digest_ms;
  values["replay.admit_hit_ms"] = replay.admit_hit_ms;
  values["replay.admit_miss_ms"] = replay.admit_miss_ms;
  values["replay.parse_vote_ms"] = replay.parse_vote_ms;
  values["replay.aggregate_ms"] = replay.aggregate_ms;
  values["replay.serialize_consensus_ms"] = replay.serialize_consensus_ms;
  values["replay.share"] = event_loop_ms > 0.0 ? replay.Total() / event_loop_ms : 0.0;
  values["span.coverage"] = min_coverage;
  values["trace.overhead"] = untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0;
  values["sim.bytes_sent"] = static_cast<double>(bytes_sent) / static_cast<double>(cells.size());
  values["workload_cache.builds"] = static_cast<double>(runner.workload_cache_misses());

  const std::vector<ScenarioSpec> specs = workload.AllSpecs();
  start = Clock::now();
  for (const ScenarioSpec& spec : specs) {
    torscenario::SpecDigest(spec);
  }
  values["timeline.spec_digest_ms"] = 1e3 * SecondsSince(start);
  values["timeline.sweep_ms"] = 0.0;
  values["timeline.stitch_ms"] = 0.0;
  values["memo.hit_rate"] = 0.0;

  // The workload's own pass, untraced: its wall time is the makespan of the
  // traced cells' simulations, and its fingerprints cover the timelines.
  const Pass pass = workload.Run(runner);
  verdict.Check(pass, pinned, pass.fingerprints);
  values["sweep.utilization"] =
      traced_ms / (static_cast<double>(workload.threads()) * 1e3 * pass.wall_s);
  workload.TraceExtras(values);

  std::map<std::string, Metric> metrics;
  for (const auto& [name, value] : values) {
    const char* unit = "ms";
    if (name.starts_with("event_loop.rss_growth_mb")) {
      unit = "MB";
    } else if (name == "sim.bytes_sent") {
      unit = "bytes";
    } else if (name.starts_with("admission.") || name == "workload_cache.builds") {
      unit = "count";
    } else if (name == "replay.share" || name == "span.coverage" || name == "trace.overhead" ||
               name == "memo.hit_rate" || name == "sweep.utilization") {
      unit = "ratio";
    }
    metrics[name] = {value, unit};
  }
  return PrintResult(verdict, metrics);
}

int Record(const Options& options, Workload& workload) {
  ScenarioRunner runner;
  const Pass pass = workload.Run(runner);
  for (const std::string& failure : pass.contrast_failures) {
    std::fprintf(stderr, "CONTRAST %s\n", failure.c_str());
  }
  for (const auto& [key, fingerprint] : pass.fingerprints) {
    std::printf("%s %llu %s %s\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), key.c_str(), fingerprint.c_str());
  }
  return pass.contrast_failures.empty() ? 0 : 1;
}

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--record") {
      options.record = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--reference" && has_value) {
      options.reference = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseOptions(argc, argv, options)) {
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.seed, options.smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (round-8k, attack-grid, week-timeline)\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.record) {
    return Record(options, *workload);
  }
  Reference reference;
  if (!options.reference.empty() && !reference.Load(options.reference)) {
    std::fprintf(stderr, "cannot read reference %s\n", options.reference.c_str());
    return 2;
  }
  const Fingerprints* pinned = options.smoke ? nullptr : reference.Find(options.workload, options.seed);
  std::fprintf(stderr, "perfbench %s seed %llu: %s\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               pinned != nullptr ? "pinned fingerprints" : "no pinned fingerprints for this seed");
  return options.trace ? MeasureLayers(options, *workload, pinned)
                       : MeasureEndToEnd(options, *workload, pinned);
}
