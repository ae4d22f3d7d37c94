#include "workloads.h"

#include <functional>
#include <memory>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"

namespace perfbench {
namespace {

using torproto::ByzantineBehavior;

constexpr uint64_t kClientCount = 5'000'000;

std::shared_ptr<torattack::AttackSchedule> KnockoutFlood(double available_bps) {
  // The paper's attack: 5 of 9 authorities flooded for the first 5 minutes.
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = available_bps;
  return std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
}

}  // namespace

const char* const kKnockoutShape = "knockout";

const std::vector<std::string>& Protocols() {
  static const std::vector<std::string> protocols = {"current", "synchronous", "icps"};
  return protocols;
}

std::vector<Cell> Round8kCells(uint64_t seed, bool smoke) {
  std::vector<Cell> cells;
  for (const std::string& protocol : Protocols()) {
    Cell cell;
    cell.label = protocol + "/honest";
    cell.protocol = protocol;
    cell.spec.name = "round-8k/" + cell.label;
    cell.spec.protocol = protocol;
    cell.spec.relay_count = smoke ? 500 : 8000;
    cell.spec.seed = seed;
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<Cell> AttackGridCells(uint64_t seed, bool smoke) {
  const size_t relay_count = smoke ? 300 : 2000;
  // The flood leaves 0.5 Mbit/s at 2,000 relays; a smoke grid keeps the same
  // residual bandwidth per relay, so the knockout still knocks out.
  const double flood_bps = torattack::kUnderAttackBps * static_cast<double>(relay_count) / 2000.0;
  struct Shape {
    std::string name;
    std::function<void(torscenario::ScenarioSpec&)> apply;
  };
  const std::vector<Shape> shapes = {
      {"no-attack", [](torscenario::ScenarioSpec&) {}},
      {kKnockoutShape,
       [flood_bps](torscenario::ScenarioSpec& spec) { spec.attack = KnockoutFlood(flood_bps); }},
      {"rolling",
       [](torscenario::ScenarioSpec& spec) {
         torattack::RollingAttackConfig config;
         config.victim_count = 5;
         config.period = torbase::Minutes(1);
         config.end = torbase::Minutes(20);
         spec.attack = std::make_shared<torattack::RollingAttack>(config);
       }},
      {"leader",
       [](torscenario::ScenarioSpec& spec) {
         torattack::AdaptiveLeaderConfig config;
         config.victim_count = 1;
         config.period = torbase::Seconds(30);
         config.end = torbase::Minutes(20);
         spec.attack = std::make_shared<torattack::AdaptiveLeaderAttack>(config);
       }},
      {"byz-equivocate-malformed",
       [](torscenario::ScenarioSpec& spec) {
         spec.byzantine.behaviors[3] = ByzantineBehavior::kEquivocate;
         spec.byzantine.behaviors[6] = ByzantineBehavior::kMalformedWire;
       }},
      {"byz-replay-inflate",
       [](torscenario::ScenarioSpec& spec) {
         spec.byzantine.behaviors[2] = ByzantineBehavior::kReplay;
         spec.byzantine.behaviors[7] = ByzantineBehavior::kInflateBandwidth;
       }},
  };
  std::vector<Cell> cells;
  for (const std::string& protocol : Protocols()) {
    for (const Shape& shape : shapes) {
      Cell cell;
      cell.label = protocol + "/" + shape.name;
      cell.protocol = protocol;
      cell.spec.name = "attack-grid/" + cell.label;
      cell.spec.protocol = protocol;
      cell.spec.relay_count = relay_count;
      cell.spec.seed = seed;
      cell.spec.client_load.client_count = kClientCount;
      shape.apply(cell.spec);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

uint32_t KnockoutFirstRound() { return 8; }
uint32_t KnockoutLastRound(bool smoke) { return smoke ? 11 : 15; }

std::vector<TimelineCase> WeekTimelines(uint64_t seed, bool smoke) {
  std::vector<TimelineCase> timelines;
  for (const std::string& protocol : Protocols()) {
    torscenario::TimelineSpec timeline;
    timeline.name = "week-timeline/" + protocol;
    timeline.rounds = smoke ? 24 : 168;
    timeline.round_period = torbase::Hours(1);
    timeline.base.name = timeline.name;
    timeline.base.protocol = protocol;
    // Four concurrent 8k synchronous rounds would need ~10 GB, so its week
    // runs at the attack grid's 2,000 relays.
    const bool synchronous = protocol == "synchronous";
    timeline.base.relay_count = smoke ? (synchronous ? 300 : 500) : (synchronous ? 2000 : 8000);
    timeline.base.seed = seed;
    timeline.base.client_load.client_count = kClientCount;
    timeline.base.client_load.diff_capable_fraction = 0.8;
    // Knock out 5 of 9 authorities (link down) for 5 minutes of each round in
    // the calendar's flood; authority 7 crashes across published rounds and
    // rejoins by diff chain; authority 8 blips once mid-week.
    timeline.attacks.push_back(torscenario::AttackCalendarEntry{
        KnockoutFirstRound(), KnockoutLastRound(smoke), KnockoutFlood(0.0)});
    timeline.crashes.push_back(
        torscenario::CrashCalendarEntry{7, 2, torbase::Minutes(1), 5, torbase::Minutes(2)});
    const uint32_t blip_round = smoke ? 20 : 100;
    timeline.churn.push_back(torscenario::ChurnCalendarEntry{
        blip_round, {8, torbase::Seconds(30), torscenario::ChurnEvent::Kind::kCrash}});
    timeline.churn.push_back(torscenario::ChurnCalendarEntry{
        blip_round, {8, torbase::Minutes(5), torscenario::ChurnEvent::Kind::kRecover}});
    timelines.push_back(TimelineCase{protocol, std::move(timeline)});
  }
  return timelines;
}

}  // namespace perfbench
