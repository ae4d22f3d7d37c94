// Attack schedules: strategies for *when* and *whom* to flood. The fixed
// AttackWindow list the benches used historically becomes one strategy
// (WindowedAttack) among several:
//
//   * WindowedAttack  — a static list of windows, the paper's §4 attack.
//   * RollingAttack   — rotate the victim set every period (Danner et al.'s
//                       selective-DoS strategies: the adversary cannot afford
//                       to flood everyone, so it cycles).
//   * AdaptiveLeaderAttack — re-target the authority currently leading the
//                       agreement sub-protocol (leader chasing), falling back
//                       to a deterministic rotation for protocols without a
//                       leader notion.
//
// Schedules are installed once per run by the scenario runner, after the
// actors exist and before the simulation starts; dynamic schedules plant
// simulator events that clamp NICs mid-run through Network::LimitNode. Every
// schedule records the (time, victims) pairs it applied, so tests can assert
// deterministic victim sequences and figures can annotate attack phases.
#ifndef SRC_ATTACK_SCHEDULE_H_
#define SRC_ATTACK_SCHEDULE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/attack/ddos.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/sim/actor.h"

namespace torbase {
class Writer;
}

namespace torattack {

// What the runner tells a schedule about the run it is being installed into.
struct AttackContext {
  uint32_t authority_count = 0;
  // Simulation horizon; open-ended schedules stop planting events here.
  torbase::TimePoint horizon = 0;
  // Probe for the current agreement leader (highest in-flight view across
  // authorities), or nullopt when the protocol has no leader / has decided.
  // Unset for protocols without an agreement sub-protocol.
  std::function<std::optional<torbase::NodeId>()> current_leader;
};

// One applied clamp: at `at`, `victims` were limited to `available_bps`.
struct AttackSample {
  torbase::TimePoint at = 0;
  std::vector<torbase::NodeId> victims;
  double available_bps = 0.0;

  bool operator==(const AttackSample&) const = default;
};

class AttackSchedule {
 public:
  virtual ~AttackSchedule() = default;

  virtual std::string_view name() const = 0;

  // Installs the schedule into `harness`. Called once per run with the context
  // alive until the run's events have drained. Implementations must clamp
  // only instants at or after harness.sim().now().
  virtual void Install(torsim::Harness& harness, const AttackContext& context) = 0;

  // A fresh copy of this schedule's configuration with empty history. The
  // runner installs a clone per cell, so concurrent cells never share the
  // mutable install/history state and the spec's own schedule stays
  // untouched.
  virtual std::shared_ptr<AttackSchedule> Clone() const = 0;

  // Writes a canonical, field-complete description of this schedule's
  // *configuration* — the bytes torscenario::SpecDigest hashes to decide
  // whether two scenario specs would simulate identically. Contract: every
  // config field that can influence Install()'s behavior must be written
  // (tagged, in a fixed order, starting with name()); mutable per-run state
  // (history) must not be. Two schedules with equal descriptions must run
  // identically; a Clone() must describe identically to its original.
  virtual void Describe(torbase::Writer& writer) const = 0;

  // Victim history of the installs on this object (runs record it in
  // ScenarioResult::attack_history instead).
  const std::vector<AttackSample>& history() const { return history_; }
  void ClearHistory() { history_.clear(); }

 protected:
  void Record(torbase::TimePoint at, std::vector<torbase::NodeId> victims, double bps) {
    history_.push_back(AttackSample{at, std::move(victims), bps});
  }

 private:
  std::vector<AttackSample> history_;
};

// --- static windows ----------------------------------------------------------
class WindowedAttack : public AttackSchedule {
 public:
  explicit WindowedAttack(std::vector<AttackWindow> windows) : windows_(std::move(windows)) {}

  std::string_view name() const override { return "windowed"; }
  void Install(torsim::Harness& harness, const AttackContext& context) override;
  std::shared_ptr<AttackSchedule> Clone() const override {
    return std::make_shared<WindowedAttack>(windows_);
  }
  void Describe(torbase::Writer& writer) const override;

  std::vector<AttackWindow>& windows() { return windows_; }
  const std::vector<AttackWindow>& windows() const { return windows_; }

 private:
  std::vector<AttackWindow> windows_;
};

// --- rolling victims ---------------------------------------------------------
struct RollingAttackConfig {
  // Victims clamped simultaneously in each epoch.
  uint32_t victim_count = 5;
  torbase::TimePoint start = 0;
  // Open-ended by default; clamped to the run horizon at install time.
  torbase::TimePoint end = torbase::kTimeNever;
  // Epoch length: how long each victim set is flooded before rotating.
  torbase::Duration period = torbase::Minutes(1);
  double available_bps = kUnderAttackBps;
  // Victims advance by `stride` authorities per epoch (mod n).
  uint32_t stride = 1;
  // seed != 0 selects a deterministic pseudo-random epoch offset instead of
  // the linear rotation — same API, scrambled victim order.
  uint64_t seed = 0;
};

class RollingAttack : public AttackSchedule {
 public:
  explicit RollingAttack(const RollingAttackConfig& config) : config_(config) {}

  std::string_view name() const override { return "rolling"; }
  void Install(torsim::Harness& harness, const AttackContext& context) override;
  std::shared_ptr<AttackSchedule> Clone() const override {
    return std::make_shared<RollingAttack>(config_);
  }
  void Describe(torbase::Writer& writer) const override;

  // The victim set of epoch `epoch` among `authority_count` authorities —
  // exposed so tests can assert the exact deterministic sequence.
  std::vector<torbase::NodeId> VictimsOf(uint64_t epoch, uint32_t authority_count) const;

 private:
  RollingAttackConfig config_;
};

// --- adaptive leader chasing -------------------------------------------------
struct AdaptiveLeaderConfig {
  // The leader plus the next (victim_count - 1) round-robin leaders are
  // clamped: flooding the pipeline of upcoming views, not just the head.
  uint32_t victim_count = 1;
  torbase::TimePoint start = 0;
  torbase::TimePoint end = torbase::kTimeNever;
  // Re-targeting cadence: how often the attacker re-reads the leader.
  torbase::Duration period = torbase::Seconds(30);
  double available_bps = kUnderAttackBps;
};

class AdaptiveLeaderAttack : public AttackSchedule {
 public:
  explicit AdaptiveLeaderAttack(const AdaptiveLeaderConfig& config) : config_(config) {}

  std::string_view name() const override { return "adaptive-leader"; }
  void Install(torsim::Harness& harness, const AttackContext& context) override;
  std::shared_ptr<AttackSchedule> Clone() const override {
    return std::make_shared<AdaptiveLeaderAttack>(config_);
  }
  void Describe(torbase::Writer& writer) const override;

 private:
  void Retarget(torsim::Harness& harness, const AttackContext& context, uint64_t epoch,
                torbase::TimePoint end);

  AdaptiveLeaderConfig config_;
};

}  // namespace torattack

#endif  // SRC_ATTACK_SCHEDULE_H_
