// DDoS attack model and cost estimation (paper §4).
//
// Following the paper's methodology (and Jansen et al.'s "Point Break" model),
// an attack is expressed as a bandwidth clamp: during the attack window the
// victim's NIC has only `available_bps` left for protocol traffic (0.5 Mbit/s
// under a full stressor-service flood, 0 when modelled as knocked offline).
#ifndef SRC_ATTACK_DDOS_H_
#define SRC_ATTACK_DDOS_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/sim/network.h"

namespace torattack {

// Residual bandwidth of a node under a full DDoS flood (paper §4.3, citing
// [22]): 0.5 Mbit/s.
constexpr double kUnderAttackBps = 0.5e6;

// Link capacity of a live directory authority (paper §4.3, citing [11]):
// 250 Mbit/s.
constexpr double kAuthorityLinkBps = 250e6;

struct AttackWindow {
  std::vector<torbase::NodeId> targets;
  torbase::TimePoint start = 0;
  torbase::TimePoint end = 0;
  // Bandwidth left to every victim during the window (both directions).
  double available_bps = kUnderAttackBps;

  auto Fields() const {
    const auto& [targets, start, end, available_bps] = *this;
    return std::tie(targets, start, end, available_bps);
  }
};

// Clamps every target's ingress and egress schedule during the window and
// re-evaluates in-flight transfers. Callable both before the run starts and
// mid-run (dynamic schedules), as long as window.start is not in the simulated
// past. Overlapping windows on one target compose last-writer-wins over the
// overlap (BandwidthSchedule::LimitDuring semantics).
void ApplyAttack(torsim::Network& net, const AttackWindow& window);

// Returns the canonical "attack the first `count` authorities" target list.
std::vector<torbase::NodeId> FirstTargets(uint32_t count);

// --- cost model (paper §4.3) ------------------------------------------------
struct StressorCostModel {
  // Amortized stressor-service cost to flood one target with 1 Mbit/s of
  // attack traffic for one hour (Jansen et al. [22]).
  double usd_per_mbps_hour = 0.00074;
  // Traffic needed to saturate one authority: link capacity minus what the
  // directory protocol needs (250 - 10 Mbit/s in the paper).
  double flood_mbps = 240.0;
  uint32_t targets = 5;
  // The first two protocol rounds carry the votes: attack for 5 minutes.
  double attack_minutes_per_run = 5.0;
  // One consensus run per hour.
  double runs_per_day = 24.0;

  // Cost of breaking a single consensus run (the paper reports ~$0.074).
  double CostPerRunUsd() const {
    return usd_per_mbps_hour * flood_mbps * targets * (attack_minutes_per_run / 60.0);
  }
  // Cost of breaking every run for 30 days (the paper reports $53.28/month).
  double CostPerMonthUsd() const { return CostPerRunUsd() * runs_per_day * 30.0; }
};

}  // namespace torattack

#endif  // SRC_ATTACK_DDOS_H_
