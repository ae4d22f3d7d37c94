// The §2.1 arithmetic that makes the attack catastrophic: consensus documents
// are valid for three hours and generated hourly, so an attacker who breaks
// every hourly run (five minutes of flooding each) takes the whole network
// down three hours after the first broken run — and keeps it down for
// $53.28/month. This example runs half a day of hourly rounds per protocol as
// one fault-calendar timeline (ScenarioRunner::RunTimeline) and prints the
// authority-side view (did a consensus form?), the client-side view (were a
// million clients served a fresh document at each hour's end, and for how
// long had they no valid one at all), and the consensus-health monitor's
// alerts for the first attacked hour.
//
// Exits non-zero unless the deployed protocol goes hard down and ICPS does
// not.
//
//   ./build/examples/outage_timeline
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/scenario/runner.h"
#include "src/scenario/timeline.h"

namespace {

constexpr uint32_t kHours = 12;
constexpr uint32_t kFirstAttackedHour = 2;

// Half a day of hourly rounds; from hour 2 on, the attacker floods 5
// authorities for the first five minutes of every round.
torscenario::TimelineSpec HourlyAttack(const std::string& protocol) {
  torscenario::TimelineSpec timeline;
  timeline.name = "outage_timeline/" + protocol;
  timeline.base.protocol = protocol;
  timeline.base.relay_count = 2000;
  timeline.base.client_load.client_count = 1'000'000;
  timeline.rounds = kHours;
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = torattack::kUnderAttackBps;
  timeline.attacks.push_back(torscenario::AttackCalendarEntry{
      kFirstAttackedHour, kHours - 1,
      std::make_shared<torattack::WindowedAttack>(std::vector<torattack::AttackWindow>{window})});
  return timeline;
}

void PrintTimeline(const char* label, const torscenario::TimelineResult& result) {
  std::printf("%-34s    runs: ", label);
  for (const torscenario::ScenarioResult& round : result.rounds) {
    std::printf("%c", round.succeeded ? '+' : 'x');
  }
  std::printf("\n%-34s clients: ", "");
  for (const torscenario::RoundSnapshot& snapshot : result.snapshots) {
    std::printf("%c", snapshot.fresh_at_boundary ? 'F' : 's');
  }
  const torscenario::ClientAvailabilityResult& day = result.client_availability;
  std::printf("\n%-34s     day: %.1f%% fresh", "", 100.0 * day.fresh_fraction);
  if (day.hard_down_seconds > 0.0) {
    std::printf(", HARD DOWN %.1f h from t = %.1f h", day.hard_down_seconds / 3600.0,
                day.hard_down_start_seconds / 3600.0);
  } else if (day.outage_seconds > 0.0) {
    std::printf(", degraded (stale) for %.1f h", day.outage_seconds / 3600.0);
  } else {
    std::printf(", no client-visible outage");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Network availability under hourly attacks (%u hours simulated)\n", kHours);
  std::printf("runs: '+' = consensus published, 'x' = run failed\n");
  std::printf("clients: at each hour's end, 'F' = served fresh, 's' = stale or no valid "
              "document\n\n");

  torscenario::ScenarioRunner runner;
  const torscenario::TimelineResult current = runner.RunTimeline(HourlyAttack("current"));
  const torscenario::TimelineResult icps = runner.RunTimeline(HourlyAttack("icps"));
  PrintTimeline("Current, attack from hour 2:", current);
  std::printf("\n");
  PrintTimeline("Ours (ICPS), attack from hour 2:", icps);

  // What the deployed consensus-health monitor (Table 1's mitigation) sees
  // during the first attacked hour.
  std::printf("\nHealth-monitor alerts, hour %u (current protocol):\n", kFirstAttackedHour);
  for (const tordir::HealthAlert& alert : current.rounds[kFirstAttackedHour].health_alerts) {
    std::printf("  [%s] %s\n", tordir::HealthAlertName(alert.kind), alert.detail.c_str());
  }

  std::printf("\nThe deployed protocol loses every attacked run; three hours after the first\n");
  std::printf("loss, clients have no valid consensus left and Tor is down — for as long as\n");
  std::printf("the attacker keeps paying ~$0.074/hour. The partial-synchrony protocol\n");
  std::printf("completes each run after the 5-minute flood ends, so the network never goes\n");
  std::printf("down and every client fetch is served fresh.\n");

  const bool contrast = current.client_availability.hard_down_seconds > 0.0 &&
                        icps.client_availability.hard_down_seconds == 0.0;
  if (!contrast) {
    std::fprintf(stderr, "outage_timeline: expected current hard down and ICPS up\n");
  }
  return contrast ? 0 : 1;
}
