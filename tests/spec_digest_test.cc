// Tests for the canonical scenario-spec digest (src/scenario/spec_digest.h):
// the field-coverage contract behind the ScenarioRunner's result memo. The
// mutation sweep proves every result-influencing ScenarioSpec field — down
// through attack-schedule configs, churn events, the byzantine spec, the
// client-load spec and the previous-consensus baseline — changes the digest,
// and that the one documented exemption (spec.name, a display label) does
// not. The digest walks ScenarioSpec::Fields(), whose structured binding makes
// a member left off the list a compile error on every platform.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/schedule.h"
#include "src/common/serialize.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec_digest.h"

namespace torscenario {
namespace {

using torbase::Hours;
using torbase::Millis;
using torbase::Minutes;
using torbase::Seconds;

std::shared_ptr<const tordir::ConsensusDocument> SmallConsensus(uint64_t valid_after) {
  auto doc = std::make_shared<tordir::ConsensusDocument>();
  doc->valid_after = valid_after;
  doc->fresh_until = valid_after + 3600;
  doc->valid_until = valid_after + 3 * 3600;
  return doc;
}

// Every field non-default, so each mutator below flips a value the digest has
// actually seen.
ScenarioSpec RichSpec() {
  ScenarioSpec spec;
  spec.name = "rich";
  spec.protocol = "icps";
  spec.authority_count = 7;
  spec.relay_count = 321;
  spec.seed = 9;
  spec.bandwidth_bps = 100e6;
  spec.bandwidth_by_authority = {{2, 50e6}};
  spec.latency = Millis(75);
  torattack::AttackWindow window;
  window.targets = {0, 2};
  window.start = Minutes(1);
  window.end = Minutes(6);
  window.available_bps = 1e6;
  spec.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
  spec.churn = {ChurnEvent{3, Minutes(5), ChurnEvent::Kind::kCrash}};
  spec.horizon = Hours(2);
  spec.dissemination_timeout = Seconds(99);
  spec.two_phase_agreement = true;
  spec.client_load.client_count = 1000;
  spec.client_load.vote_lead = Minutes(5);
  spec.client_load.evaluation_window = Hours(2);
  spec.client_load.consensus_size_hint_bytes = 123.0;
  spec.client_load.diff_capable_fraction = 0.5;
  spec.monitor_health = false;
  spec.previous_consensus = SmallConsensus(7200);
  spec.byzantine.behaviors = {{1, torproto::ByzantineBehavior::kReplay}};
  spec.byzantine.mutation_seed = 7;
  spec.retain_consensus = true;
  return spec;
}

torattack::AttackWindow& FirstWindow(ScenarioSpec& spec) {
  return static_cast<torattack::WindowedAttack&>(*spec.attack).windows()[0];
}

TEST(SpecDigestTest, SpecFieldListIsCoveredByDigest) {
  const ScenarioSpec baseline = RichSpec();
  const torcrypto::Digest256 base_digest = SpecDigest(baseline);
  EXPECT_EQ(base_digest, SpecDigest(baseline));  // deterministic

  // The one exemption: name is a display label, echoed in reports but never
  // simulated. Quiet timeline rounds ("week/round3", "week/round4", ...)
  // dedupe into one simulation precisely because of this.
  {
    ScenarioSpec renamed = baseline;
    renamed.name = "completely-different";
    EXPECT_EQ(SpecDigest(renamed), base_digest);
  }

  // One mutator per field (nested fields included); each must change the
  // digest in isolation, or the memo would serve one cached result for two
  // specs that simulate differently.
  const std::vector<std::function<void(ScenarioSpec&)>> mutators = {
      [](ScenarioSpec& s) { s.protocol = "current"; },
      [](ScenarioSpec& s) { s.authority_count += 1; },
      [](ScenarioSpec& s) { s.relay_count += 1; },
      [](ScenarioSpec& s) { s.seed += 1; },
      [](ScenarioSpec& s) { s.bandwidth_bps += 1.0; },
      [](ScenarioSpec& s) { s.bandwidth_by_authority[2] += 1.0; },
      [](ScenarioSpec& s) { s.bandwidth_by_authority[5] = 10e6; },
      [](ScenarioSpec& s) { s.latency += 1; },
      [](ScenarioSpec& s) { s.attack = nullptr; },
      [](ScenarioSpec& s) { FirstWindow(s).targets.push_back(4); },
      [](ScenarioSpec& s) { FirstWindow(s).start += 1; },
      [](ScenarioSpec& s) { FirstWindow(s).end += 1; },
      [](ScenarioSpec& s) { FirstWindow(s).available_bps += 1.0; },
      [](ScenarioSpec& s) {
        static_cast<torattack::WindowedAttack&>(*s.attack).windows().push_back(
            torattack::AttackWindow{});
      },
      [](ScenarioSpec& s) { s.churn[0].node += 1; },
      [](ScenarioSpec& s) { s.churn[0].at += 1; },
      [](ScenarioSpec& s) { s.churn[0].kind = ChurnEvent::Kind::kRecover; },
      [](ScenarioSpec& s) { s.churn.push_back(ChurnEvent{}); },
      [](ScenarioSpec& s) { s.horizon += 1; },
      [](ScenarioSpec& s) { s.dissemination_timeout += 1; },
      [](ScenarioSpec& s) { s.two_phase_agreement = false; },
      [](ScenarioSpec& s) { s.client_load.client_count += 1; },
      [](ScenarioSpec& s) { s.client_load.vote_lead += 1; },
      [](ScenarioSpec& s) { s.client_load.evaluation_window += 1; },
      [](ScenarioSpec& s) { s.client_load.consensus_size_hint_bytes += 1.0; },
      [](ScenarioSpec& s) { s.client_load.diff_capable_fraction += 0.1; },
      [](ScenarioSpec& s) { s.monitor_health = true; },
      [](ScenarioSpec& s) { s.previous_consensus = nullptr; },
      [](ScenarioSpec& s) { s.previous_consensus = SmallConsensus(7200 + 3600); },
      [](ScenarioSpec& s) {
        s.byzantine.behaviors[1] = torproto::ByzantineBehavior::kEquivocate;
      },
      [](ScenarioSpec& s) {
        s.byzantine.behaviors[4] = torproto::ByzantineBehavior::kInflateBandwidth;
      },
      [](ScenarioSpec& s) { s.byzantine.mutation_seed += 1; },
      [](ScenarioSpec& s) { s.retain_consensus = false; },
  };
  for (size_t i = 0; i < mutators.size(); ++i) {
    ScenarioSpec mutated = baseline;
    // Deep-copy the attack before mutating it: RichSpec's windows are behind
    // a shared_ptr the baseline must keep unperturbed.
    if (mutated.attack != nullptr) {
      mutated.attack = mutated.attack->Clone();
    }
    mutators[i](mutated);
    EXPECT_NE(SpecDigest(mutated), base_digest) << "mutator " << i;
  }
}

// Per-config coverage for the two dynamic schedules (the windowed sweep above
// covers AttackWindow): every RollingAttackConfig / AdaptiveLeaderConfig
// field must reach the digest through Describe.
TEST(SpecDigestTest, DynamicScheduleConfigsAreCovered) {
  torattack::RollingAttackConfig rolling;
  rolling.victim_count = 3;
  rolling.end = Minutes(9);
  rolling.period = Seconds(90);
  ScenarioSpec spec = RichSpec();
  spec.attack = std::make_shared<torattack::RollingAttack>(rolling);
  const torcrypto::Digest256 base = SpecDigest(spec);

  const std::vector<std::function<void(torattack::RollingAttackConfig&)>> rolling_mutators = {
      [](auto& c) { c.victim_count += 1; },
      [](auto& c) { c.end += 1; },
      [](auto& c) { c.period += 1; },
  };
  for (size_t i = 0; i < rolling_mutators.size(); ++i) {
    torattack::RollingAttackConfig mutated = rolling;
    rolling_mutators[i](mutated);
    spec.attack = std::make_shared<torattack::RollingAttack>(mutated);
    EXPECT_NE(SpecDigest(spec), base) << "rolling mutator " << i;
  }

  torattack::AdaptiveLeaderConfig adaptive;
  adaptive.victim_count = 2;
  adaptive.end = Minutes(9);
  adaptive.period = Seconds(45);
  spec.attack = std::make_shared<torattack::AdaptiveLeaderAttack>(adaptive);
  const torcrypto::Digest256 adaptive_base = SpecDigest(spec);

  const std::vector<std::function<void(torattack::AdaptiveLeaderConfig&)>> adaptive_mutators = {
      [](auto& c) { c.victim_count += 1; },
      [](auto& c) { c.end += 1; },
      [](auto& c) { c.period += 1; },
  };
  for (size_t i = 0; i < adaptive_mutators.size(); ++i) {
    torattack::AdaptiveLeaderConfig mutated = adaptive;
    adaptive_mutators[i](mutated);
    spec.attack = std::make_shared<torattack::AdaptiveLeaderAttack>(mutated);
    EXPECT_NE(SpecDigest(spec), adaptive_base) << "adaptive mutator " << i;
  }
}

// Distinct schedule types can never collide (each description leads with the
// schedule's name), even when their scalar fields happen to match.
TEST(SpecDigestTest, ScheduleTypesAreDomainSeparated) {
  ScenarioSpec spec = RichSpec();
  spec.attack = std::make_shared<torattack::RollingAttack>(torattack::RollingAttackConfig{});
  const torcrypto::Digest256 rolling = SpecDigest(spec);
  spec.attack =
      std::make_shared<torattack::AdaptiveLeaderAttack>(torattack::AdaptiveLeaderConfig{});
  const torcrypto::Digest256 adaptive = SpecDigest(spec);
  spec.attack = std::make_shared<torattack::WindowedAttack>(std::vector<torattack::AttackWindow>{});
  const torcrypto::Digest256 windowed = SpecDigest(spec);
  EXPECT_NE(rolling, adaptive);
  EXPECT_NE(rolling, windowed);
  EXPECT_NE(adaptive, windowed);
}

// Mutable per-run state never enters the digest: a schedule that has already
// recorded a run's history digests identically to a fresh clone — the memo
// must hit on the second run of a shared schedule, not fork on history bytes.
TEST(SpecDigestTest, AttackHistoryDoesNotPerturbDigest) {
  ScenarioSpec spec;
  spec.name = "history";
  spec.protocol = "current";
  spec.relay_count = 60;
  spec.horizon = Minutes(20);
  torattack::AttackWindow window;
  window.targets = {0, 1};
  window.start = 0;
  window.end = Minutes(5);
  spec.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});

  const torcrypto::Digest256 before = SpecDigest(spec);
  torbase::Writer fresh_description;
  spec.attack->Clone()->Describe(fresh_description);

  ScenarioRunner runner;
  const ScenarioResult result = runner.Run(spec);
  EXPECT_FALSE(result.attack_history.empty());

  EXPECT_EQ(SpecDigest(spec), before);
  torbase::Writer ran_description;
  spec.attack->Describe(ran_description);
  EXPECT_EQ(ran_description.buffer(), fresh_description.buffer());
}

}  // namespace
}  // namespace torscenario
