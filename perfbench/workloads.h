// The benchmark's three workloads as ScenarioSpecs / TimelineSpecs, each a
// pure function of the workload seed. See README.md for why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/scenario/timeline.h"

namespace perfbench {

// The three built-in protocols, in the order every workload reports them.
const std::vector<std::string>& Protocols();

// One scenario cell with a stable label ("<protocol>/<shape>") that keys its
// pinned fingerprint.
struct Cell {
  std::string label;
  std::string protocol;
  torscenario::ScenarioSpec spec;
};

struct TimelineCase {
  std::string protocol;
  torscenario::TimelineSpec spec;
};

// `smoke` shrinks every workload (fewer relays, a shorter horizon) so the
// benchmark's own tests can run all three in seconds.

// round-8k: one honest round of each protocol at 8,000 relays, default spec.
std::vector<Cell> Round8kCells(uint64_t seed, bool smoke);

// attack-grid: 3 protocols x 6 shapes at 2,000 relays with a 5M-client plane,
// protocol-major (the six cells of one protocol are contiguous).
std::vector<Cell> AttackGridCells(uint64_t seed, bool smoke);
extern const char* const kKnockoutShape;

// week-timeline: the 168-round hourly fault calendar, one timeline per
// protocol: current and icps at 8,000 relays, synchronous at 2,000.
std::vector<TimelineCase> WeekTimelines(uint64_t seed, bool smoke);
// Rounds of the week calendar under the knockout flood (inclusive).
uint32_t KnockoutFirstRound();
uint32_t KnockoutLastRound(bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
