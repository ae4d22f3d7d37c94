// Deterministic differential scenario fuzzer: sweeps
// (protocol x attack x churn x byzantine x seed) as one grid — thousands of
// cells — and checks every cell against the robustness contract:
//
//   * every injected byzantine authority is implicated by at least one
//     health alert (100% fault detection, evidence- or absence-based);
//   * ICPS assembles a valid consensus whenever fewer than 1/3 of the
//     authorities are faulty (byzantine or permanently crashed);
//   * clean cells (no attack, no churn, no byzantine) succeed alert-free;
//   * single-behavior clean cells raise the behavior's signature alert kind;
//   * the parallel sweep (8 threads) is bit-identical to the serial one;
//   * the result memo is invisible: replaying the grid on the warm runner is
//     all memo hits and bit-identical, and every timeline case recomputed on
//     a memo-disabled runner matches the memoized result exactly.
//
// A second leg runs multi-round fault calendars through RunTimeline: byzantine
// behaviors flipping on and off mid-horizon (every calendar-injected
// instantiation must be detected), crashes spanning published rounds (the
// rejoin must actually transfer bytes), and the whole stitched horizon must be
// bit-identical between a serial and an 8-thread run.
//
// `--reference` adds the reference-runner differential: the grid and every
// timeline case rerun on a ScenarioRunner with every shortcut off (no vote
// cache, no shared document store, no memo, serial cells), and each result
// must be bit-identical to the fast runner's.
//
// Everything is seeded: the same invocation always runs the same cells with
// the same wire mutations, so a failure reproduces by cell name. `--quick`
// runs a fixed two-seed block (a few hundred cells) as the CI gate; the full
// grid (>= 1000 cells) is the local / manual target. Exit status is non-zero
// on any violation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/common/table.h"
#include "src/protocols/byzantine.h"
#include "src/scenario/runner.h"
#include "src/scenario/timeline.h"

namespace {

using torproto::ByzantineBehavior;
using torscenario::ScenarioResult;
using torscenario::ScenarioSpec;

constexpr uint32_t kAuthorities = 9;
// ICPS partial-synchrony tolerance at n = 9: strictly fewer than 3 faulty.
constexpr uint32_t kIcpsTolerance = (kAuthorities - 1) / 3;

struct AttackAxis {
  const char* name;
  std::shared_ptr<torattack::AttackSchedule> schedule;  // shared; runner clones
};

std::vector<AttackAxis> AttackAxes() {
  std::vector<AttackAxis> axes;
  axes.push_back({"none", nullptr});

  // The paper's headline: five minutes of flooding on a majority of the
  // authorities, covering the lock-step vote phase.
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = torattack::kUnderAttackBps;
  axes.push_back({"window5m", std::make_shared<torattack::WindowedAttack>(
                                  std::vector<torattack::AttackWindow>{window})});

  // Rotating victim set: every authority gets flooded at some point.
  torattack::RollingAttackConfig rolling;
  rolling.victim_count = 5;
  rolling.period = torbase::Minutes(1);
  rolling.end = torbase::Minutes(4);
  axes.push_back({"rolling4m", std::make_shared<torattack::RollingAttack>(rolling)});
  return axes;
}

struct ChurnAxis {
  const char* name;
  std::vector<torscenario::ChurnEvent> events;
  uint32_t permanent_crashes;  // crashes without a recover event
};

std::vector<ChurnAxis> ChurnAxes() {
  using torscenario::ChurnEvent;
  std::vector<ChurnAxis> axes;
  axes.push_back({"none", {}, 0});
  axes.push_back({"blip",
                  {{/*node=*/7, torbase::Seconds(30), ChurnEvent::Kind::kCrash},
                   {/*node=*/7, torbase::Minutes(5), ChurnEvent::Kind::kRecover}},
                  0});
  axes.push_back({"dead", {{/*node=*/8, 0, ChurnEvent::Kind::kCrash}}, 1});
  return axes;
}

struct ByzantineAxis {
  const char* name;
  torproto::ByzantineSpec spec;  // mutation_seed overwritten per cell
};

std::vector<ByzantineAxis> ByzantineAxes() {
  // Byzantine ids stay clear of the churn nodes (7, 8) so a crashed-and-
  // silent authority never masks an injected fault. `wire@0` targets the
  // synchronous protocol's designated Dolev-Strong sender: its mutated list
  // travels inside the agreed packed vote, exercising the unpack-time
  // admission path on every honest authority.
  std::vector<ByzantineAxis> axes;
  axes.push_back({"none", {}});
  {
    ByzantineAxis axis{"equiv@4", {}};
    axis.spec.behaviors[4] = ByzantineBehavior::kEquivocate;
    axes.push_back(std::move(axis));
  }
  {
    ByzantineAxis axis{"replay@4", {}};
    axis.spec.behaviors[4] = ByzantineBehavior::kReplay;
    axes.push_back(std::move(axis));
  }
  {
    ByzantineAxis axis{"wire@0", {}};
    axis.spec.behaviors[0] = ByzantineBehavior::kMalformedWire;
    axes.push_back(std::move(axis));
  }
  {
    ByzantineAxis axis{"inflate@4", {}};
    axis.spec.behaviors[4] = ByzantineBehavior::kInflateBandwidth;
    axes.push_back(std::move(axis));
  }
  {
    ByzantineAxis axis{"equiv+replay", {}};
    axis.spec.behaviors[1] = ByzantineBehavior::kEquivocate;
    axis.spec.behaviors[4] = ByzantineBehavior::kReplay;
    axes.push_back(std::move(axis));
  }
  {
    // The attack grid's replay+inflate shape: two faulty texts in one cell.
    // Every other authority refuses the stale one, and every holder admits
    // and aggregates the inflated one.
    ByzantineAxis axis{"replay+inflate", {}};
    axis.spec.behaviors[2] = ByzantineBehavior::kReplay;
    axis.spec.behaviors[5] = ByzantineBehavior::kInflateBandwidth;
    axes.push_back(std::move(axis));
  }
  {
    ByzantineAxis axis{"3-faulty", {}};
    axis.spec.behaviors[1] = ByzantineBehavior::kEquivocate;
    axis.spec.behaviors[4] = ByzantineBehavior::kReplay;
    axis.spec.behaviors[5] = ByzantineBehavior::kMalformedWire;
    axes.push_back(std::move(axis));
  }
  return axes;
}

struct Cell {
  ScenarioSpec spec;
  bool clean = false;       // no attack, no churn, no byzantine
  uint32_t faulty = 0;      // byzantine + permanently crashed authorities
};

std::vector<Cell> BuildGrid(const std::vector<uint64_t>& seeds) {
  const auto attacks = AttackAxes();
  const auto churns = ChurnAxes();
  const auto byzantines = ByzantineAxes();

  std::vector<Cell> cells;
  cells.reserve(seeds.size() * 3 * attacks.size() * churns.size() * byzantines.size());
  for (const uint64_t seed : seeds) {
    for (const char* protocol : {"current", "synchronous", "icps"}) {
      for (size_t a = 0; a < attacks.size(); ++a) {
        for (size_t c = 0; c < churns.size(); ++c) {
          for (size_t b = 0; b < byzantines.size(); ++b) {
            Cell cell;
            ScenarioSpec& spec = cell.spec;
            spec.protocol = protocol;
            spec.authority_count = kAuthorities;
            spec.relay_count = 120;
            spec.seed = seed;
            spec.horizon = torbase::Hours(1);
            spec.attack = attacks[a].schedule;
            spec.churn = churns[c].events;
            spec.byzantine = byzantines[b].spec;
            // Distinct wire mutations per cell, reproducible from the name.
            spec.byzantine.mutation_seed = seed * 7919 + a * 131 + c * 17 + b;
            spec.name = std::string(protocol) + "/" + attacks[a].name + "/" + churns[c].name +
                        "/" + byzantines[b].name + "/s" + std::to_string(seed);
            cell.clean = a == 0 && c == 0 && b == 0;
            cell.faulty = static_cast<uint32_t>(spec.byzantine.behaviors.size()) +
                          churns[c].permanent_crashes;
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

bool AlertImplicates(const tordir::HealthAlert& alert, torbase::NodeId authority) {
  return std::find(alert.authorities.begin(), alert.authorities.end(), authority) !=
         alert.authorities.end();
}

// The signature alert kind each injected behavior must produce in a cell with
// no attack and no churn (under interference the monitor may only see the
// absence-based missing-votes evidence instead).
tordir::HealthAlertKind SignatureAlert(ByzantineBehavior behavior) {
  switch (behavior) {
    case ByzantineBehavior::kEquivocate:
      return tordir::HealthAlertKind::kVoteEquivocation;
    case ByzantineBehavior::kReplay:
      return tordir::HealthAlertKind::kReplayedVote;
    case ByzantineBehavior::kMalformedWire:
      return tordir::HealthAlertKind::kMalformedVote;
    case ByzantineBehavior::kInflateBandwidth:
      return tordir::HealthAlertKind::kBandwidthInflation;
  }
  return tordir::HealthAlertKind::kMissingVotes;
}

struct Violations {
  uint64_t undetected_faults = 0;
  uint64_t icps_liveness = 0;
  uint64_t unclean_clean_cells = 0;
  uint64_t missing_signature_alerts = 0;
  uint64_t divergent_cells = 0;
  uint64_t timeline_violations = 0;
  uint64_t memo_divergences = 0;
  uint64_t reference_divergences = 0;

  uint64_t Total() const {
    return undetected_faults + icps_liveness + unclean_clean_cells + missing_signature_alerts +
           divergent_cells + timeline_violations + memo_divergences + reference_divergences;
  }
};

void CheckCell(const Cell& cell, const ScenarioResult& result, Violations& violations) {
  const ScenarioSpec& spec = cell.spec;

  if (result.faults_detected != result.byzantine_count) {
    ++violations.undetected_faults;
    std::printf("FAIL %-40s detected %u of %u injected faults\n", spec.name.c_str(),
                result.faults_detected, result.byzantine_count);
  }

  if (spec.protocol == "icps" && cell.faulty <= kIcpsTolerance && !result.succeeded) {
    ++violations.icps_liveness;
    std::printf("FAIL %-40s ICPS not live with %u faulty (tolerance %u)\n", spec.name.c_str(),
                cell.faulty, kIcpsTolerance);
  }

  if (cell.clean && (!result.succeeded || !result.health_alerts.empty())) {
    ++violations.unclean_clean_cells;
    std::printf("FAIL %-40s clean cell: succeeded=%d alerts=%zu\n", spec.name.c_str(),
                result.succeeded, result.health_alerts.size());
  }

  // Quiet single-fault cells must show the behavior's exact alert kind,
  // implicating exactly the injected authority.
  if (spec.attack == nullptr && spec.churn.empty() && spec.byzantine.behaviors.size() == 1) {
    const auto& [byz_id, behavior] = *spec.byzantine.behaviors.begin();
    const tordir::HealthAlertKind expected = SignatureAlert(behavior);
    bool found = false;
    for (const auto& alert : result.health_alerts) {
      if (alert.kind == expected && AlertImplicates(alert, byz_id)) {
        found = true;
      }
    }
    if (!found) {
      ++violations.missing_signature_alerts;
      std::printf("FAIL %-40s missing %s alert for authority %u\n", spec.name.c_str(),
                  tordir::HealthAlertName(expected), byz_id);
    }
  }
}

// --- the timeline leg -------------------------------------------------------
// Multi-round fault calendars through RunTimeline, fuzzing the dimensions a
// single-round cell cannot reach: byzantine behaviors flipping on and off
// mid-horizon, crashes spanning round boundaries with diff-chain rejoins, and
// the serial-vs-parallel bit-identity of the whole stitched horizon.

struct TimelineCase {
  std::string name;
  torscenario::TimelineSpec timeline;
  uint32_t expected_injections = 0;  // byzantine instantiations the calendar implies
  bool expect_rejoin = false;
};

std::vector<TimelineCase> TimelineCases(const std::vector<uint64_t>& seeds) {
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = torattack::kUnderAttackBps;
  const auto flood = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});

  std::vector<TimelineCase> cases;
  for (const uint64_t seed : seeds) {
    for (const char* protocol : {"current", "synchronous", "icps"}) {
      torscenario::TimelineSpec base;
      base.rounds = 6;
      base.round_period = torbase::Minutes(30);
      base.base.protocol = protocol;
      base.base.authority_count = kAuthorities;
      base.base.relay_count = 120;
      base.base.seed = seed;

      // (a) byzantine behaviors flipping mid-horizon: an equivocator for
      // rounds 2-3, a replayer for round 4 only — 3 instantiations total.
      {
        TimelineCase tc;
        tc.timeline = base;
        tc.name = std::string(protocol) + "/timeline-flip/s" + std::to_string(seed);
        tc.timeline.name = tc.name;
        tc.timeline.base.name = tc.name;
        torscenario::ByzantineCalendarEntry equiv;
        equiv.first_round = 2;
        equiv.last_round = 3;
        equiv.spec.behaviors[4] = ByzantineBehavior::kEquivocate;
        equiv.spec.mutation_seed = seed * 31 + 1;
        tc.timeline.byzantine.push_back(std::move(equiv));
        torscenario::ByzantineCalendarEntry replay;
        replay.first_round = 4;
        replay.last_round = 4;
        replay.spec.behaviors[1] = ByzantineBehavior::kReplay;
        replay.spec.mutation_seed = seed * 31 + 2;
        tc.timeline.byzantine.push_back(std::move(replay));
        tc.expected_injections = 3;
        cases.push_back(std::move(tc));
      }

      // (b) a full fault calendar: flood round 1, authority 7 down across
      // rounds 2-4 (published rounds in between force a real catch-up), a
      // churn blip in round 5.
      {
        TimelineCase tc;
        tc.timeline = base;
        tc.name = std::string(protocol) + "/timeline-calendar/s" + std::to_string(seed);
        tc.timeline.name = tc.name;
        tc.timeline.base.name = tc.name;
        tc.timeline.attacks.push_back(torscenario::AttackCalendarEntry{1, 1, flood});
        tc.timeline.crashes.push_back(torscenario::CrashCalendarEntry{
            7, 2, torbase::Minutes(1), 4, torbase::Minutes(2)});
        tc.timeline.churn.push_back(torscenario::ChurnCalendarEntry{
            5, {8, torbase::Seconds(30), torscenario::ChurnEvent::Kind::kCrash}});
        tc.timeline.churn.push_back(torscenario::ChurnCalendarEntry{
            5, {8, torbase::Minutes(5), torscenario::ChurnEvent::Kind::kRecover}});
        tc.expect_rejoin = true;
        cases.push_back(std::move(tc));
      }
    }
  }
  return cases;
}

void CheckTimeline(const TimelineCase& tc, const torscenario::TimelineResult& serial,
                   const torscenario::TimelineResult& parallel,
                   const torscenario::TimelineResult& unmemoized, Violations& violations) {
  if (!BitIdentical(serial, parallel)) {
    ++violations.timeline_violations;
    std::printf("FAIL %-40s parallel timeline diverged from serial\n", tc.name.c_str());
  }
  // The memo-off differential: recomputing every round from scratch must
  // reproduce the (potentially memoized) serial artifact bit-for-bit.
  if (!BitIdentical(serial, unmemoized)) {
    ++violations.memo_divergences;
    std::printf("FAIL %-40s memo-off timeline diverged from memoized\n", tc.name.c_str());
  }
  if (serial.byzantine_injected != tc.expected_injections) {
    ++violations.timeline_violations;
    std::printf("FAIL %-40s calendar injected %u behaviors, expected %u\n", tc.name.c_str(),
                serial.byzantine_injected, tc.expected_injections);
  }
  if (serial.byzantine_detected != serial.byzantine_injected) {
    ++violations.timeline_violations;
    std::printf("FAIL %-40s detected %u of %u calendar-injected faults\n", tc.name.c_str(),
                serial.byzantine_detected, serial.byzantine_injected);
  }
  if (tc.expect_rejoin &&
      (serial.rejoins.size() != 1 || serial.rejoins[0].node != 7 ||
       serial.rejoins[0].rounds_behind == 0 || serial.rejoins[0].bytes == 0)) {
    ++violations.timeline_violations;
    std::printf("FAIL %-40s expected one real rejoin of authority 7 (got %zu)\n", tc.name.c_str(),
                serial.rejoins.size());
  }
  // ICPS keeps publishing through every calendar here (at most one crashed
  // authority plus the sub-knockout flood: well below tolerance).
  if (tc.timeline.base.protocol == "icps" &&
      serial.successful_rounds != static_cast<uint32_t>(serial.rounds.size())) {
    ++violations.timeline_violations;
    std::printf("FAIL %-40s ICPS lost %zu of %zu rounds\n", tc.name.c_str(),
                serial.rounds.size() - serial.successful_rounds, serial.rounds.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool memoize = true;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--no-memo") == 0) {
      memoize = false;  // run the whole grid with the result memo disabled
    } else if (std::strcmp(argv[i], "--reference") == 0) {
      reference = true;  // diff every result against the reference runner
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--no-memo] [--reference]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<uint64_t> seeds =
      quick ? std::vector<uint64_t>{1, 2} : std::vector<uint64_t>{1, 2, 3, 4, 5, 6};
  const std::vector<Cell> cells = BuildGrid(seeds);
  std::printf("=== Deterministic differential scenario fuzz: %zu cells (%s) ===\n\n",
              cells.size(), quick ? "quick" : "full");

  std::vector<ScenarioSpec> specs;
  specs.reserve(cells.size());
  for (const Cell& cell : cells) {
    specs.push_back(cell.spec);
  }

  torscenario::ScenarioRunner serial_runner;
  serial_runner.set_memoize(memoize);
  const std::vector<ScenarioResult> serial = serial_runner.Sweep(specs);

  torscenario::ScenarioRunner parallel_runner;
  parallel_runner.set_memoize(memoize);
  const std::vector<ScenarioResult> parallel =
      parallel_runner.Sweep(specs, torscenario::SweepOptions{8});

  Violations violations;
  uint64_t byzantine_cells = 0;
  uint64_t injected_faults = 0;
  uint64_t alerts_total = 0;
  double worst_detection_latency = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    CheckCell(cells[i], serial[i], violations);
    if (!BitIdentical(serial[i], parallel[i])) {
      ++violations.divergent_cells;
      std::printf("FAIL %-40s parallel sweep diverged from serial\n",
                  cells[i].spec.name.c_str());
    }
    if (serial[i].byzantine_count > 0) {
      ++byzantine_cells;
      injected_faults += serial[i].byzantine_count;
      if (!std::isnan(serial[i].fault_detection_latency_seconds)) {
        worst_detection_latency =
            std::max(worst_detection_latency, serial[i].fault_detection_latency_seconds);
      }
    }
    alerts_total += serial[i].health_alerts.size();
  }

  // Memo replay leg: sweeping the identical grid again on the warm serial
  // runner must serve every cell from the result memo — all hits, no fresh
  // simulations — and the served results must be bit-identical.
  uint64_t memo_replay_hits = 0;
  if (memoize) {
    const size_t hits_before = serial_runner.result_memo_hits();
    const size_t misses_before = serial_runner.result_memo_misses();
    const std::vector<ScenarioResult> replayed = serial_runner.Sweep(specs);
    for (size_t i = 0; i < cells.size(); ++i) {
      if (!BitIdentical(serial[i], replayed[i])) {
        ++violations.memo_divergences;
        std::printf("FAIL %-40s memo replay diverged from first sweep\n",
                    cells[i].spec.name.c_str());
      }
    }
    memo_replay_hits = serial_runner.result_memo_hits() - hits_before;
    if (memo_replay_hits != specs.size() ||
        serial_runner.result_memo_misses() != misses_before) {
      ++violations.memo_divergences;
      std::printf("FAIL grid replay missed the memo: %llu of %zu cells served as hits\n",
                  static_cast<unsigned long long>(memo_replay_hits), specs.size());
    }
  }

  // Reference leg: the same grid with every shortcut off must reproduce the
  // fast runner's results bit for bit.
  torscenario::ScenarioRunner reference_runner;
  reference_runner.set_reference(true);
  if (reference) {
    const std::vector<ScenarioResult> unshortcut = reference_runner.Sweep(specs);
    for (size_t i = 0; i < cells.size(); ++i) {
      if (!BitIdentical(serial[i], unshortcut[i])) {
        ++violations.reference_divergences;
        std::printf("FAIL %-40s reference runner diverged from the fast runner\n",
                    cells[i].spec.name.c_str());
      }
    }
  }

  // The timeline leg: multi-round calendars, serial vs 8 threads vs a
  // memo-disabled recomputation (and, with --reference, the reference runner).
  const std::vector<TimelineCase> timeline_cases = TimelineCases(seeds);
  torscenario::ScenarioRunner nomemo_runner;
  nomemo_runner.set_memoize(false);
  uint64_t timeline_injected = 0;
  uint64_t timeline_rejoins = 0;
  for (const TimelineCase& tc : timeline_cases) {
    const torscenario::TimelineResult timeline_serial = serial_runner.RunTimeline(tc.timeline);
    const torscenario::TimelineResult timeline_parallel =
        parallel_runner.RunTimeline(tc.timeline, torscenario::SweepOptions{8});
    const torscenario::TimelineResult timeline_nomemo = nomemo_runner.RunTimeline(tc.timeline);
    CheckTimeline(tc, timeline_serial, timeline_parallel, timeline_nomemo, violations);
    if (reference && !BitIdentical(timeline_serial, reference_runner.RunTimeline(tc.timeline))) {
      ++violations.reference_divergences;
      std::printf("FAIL %-40s reference timeline diverged from the fast runner\n",
                  tc.name.c_str());
    }
    timeline_injected += timeline_serial.byzantine_injected;
    timeline_rejoins += timeline_serial.rejoins.size();
  }

  torbase::Table table({"Metric", "Value"});
  table.AddRow({"Cells", torbase::Table::Int(cells.size())});
  table.AddRow({"Byzantine cells", torbase::Table::Int(byzantine_cells)});
  table.AddRow({"Injected faults", torbase::Table::Int(injected_faults)});
  table.AddRow({"Health alerts raised", torbase::Table::Int(alerts_total)});
  table.AddRow({"Worst detection latency (s)", torbase::Table::Num(worst_detection_latency, 1)});
  table.AddRow({"Undetected faults", torbase::Table::Int(violations.undetected_faults)});
  table.AddRow({"ICPS liveness violations", torbase::Table::Int(violations.icps_liveness)});
  table.AddRow({"Dirty clean cells", torbase::Table::Int(violations.unclean_clean_cells)});
  table.AddRow(
      {"Missing signature alerts", torbase::Table::Int(violations.missing_signature_alerts)});
  table.AddRow({"Serial/parallel divergences", torbase::Table::Int(violations.divergent_cells)});
  table.AddRow({"Memo replay hits", torbase::Table::Int(memo_replay_hits)});
  table.AddRow({"Memo divergences", torbase::Table::Int(violations.memo_divergences)});
  table.AddRow({"Timeline cases", torbase::Table::Int(timeline_cases.size())});
  table.AddRow({"Timeline calendar injections", torbase::Table::Int(timeline_injected)});
  table.AddRow({"Timeline rejoins", torbase::Table::Int(timeline_rejoins)});
  table.AddRow({"Timeline violations", torbase::Table::Int(violations.timeline_violations)});
  if (reference) {
    table.AddRow(
        {"Reference divergences", torbase::Table::Int(violations.reference_divergences)});
  }
  table.Print(std::cout);

  if (violations.Total() > 0) {
    std::printf("\n%llu violations.\n", static_cast<unsigned long long>(violations.Total()));
    return 1;
  }
  std::printf("\nAll cells clean: every fault detected, ICPS live below 1/3 faulty, "
              "parallel == serial, memo invisible%s.\n",
              reference ? ", reference == fast" : "");
  return 0;
}
