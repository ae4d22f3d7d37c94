// Integration tests for Luo et al.'s synchronous protocol: healthy runs,
// Dolev-Strong behaviour, DDoS failure (the same attack that breaks the
// current protocol), and the earlier bandwidth collapse from its O(n^3 d) vote
// phase.
#include <gtest/gtest.h>

#include <memory>

#include "src/attack/ddos.h"
#include "src/protocols/common.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace torproto {
namespace {

using torattack::AttackWindow;
using torbase::Minutes;
using torbase::Seconds;

struct Fixture {
  std::unique_ptr<torsim::Harness> harness;
  std::vector<SyncAuthority*> authorities;
  torcrypto::KeyDirectory directory{42, 9};

  void Build(size_t relay_count, double bandwidth_bps,
             const std::vector<AttackWindow>& attacks = {}) {
    ProtocolConfig config;
    tordir::PopulationConfig pop_config;
    pop_config.relay_count = relay_count;
    pop_config.seed = 5;
    const auto population = tordir::GeneratePopulation(pop_config);
    auto votes = tordir::MakeAllVotes(config.authority_count, population, pop_config);

    torsim::NetworkConfig net_config;
    net_config.node_count = config.authority_count;
    net_config.default_bandwidth_bps = bandwidth_bps;
    net_config.default_latency = torbase::Millis(50);
    harness = std::make_unique<torsim::Harness>(net_config);
    for (const auto& window : attacks) {
      torattack::ApplyAttack(harness->net(), window);
    }
    authorities.clear();
    for (uint32_t a = 0; a < config.authority_count; ++a) {
      authorities.push_back(static_cast<SyncAuthority*>(harness->AddActor(
          std::make_unique<SyncAuthority>(
              config, &directory,
              AuthorityMaterials{.vote = std::make_shared<const tordir::VoteDocument>(
                  std::move(votes[a]))}))));
    }
  }

  std::vector<SyncOutcome> Run() {
    harness->StartAll();
    harness->sim().Run();
    std::vector<SyncOutcome> outcomes;
    for (auto* authority : authorities) {
      EXPECT_TRUE(authority->finished());
      outcomes.push_back(authority->outcome());
    }
    return outcomes;
  }
};

TEST(SyncProtocolTest, HealthyRunAllValid) {
  Fixture fx;
  fx.Build(300, torattack::kAuthorityLinkBps);
  const auto outcomes = fx.Run();
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_TRUE(outcomes[a].decided) << "authority " << a;
    EXPECT_TRUE(outcomes[a].computed_consensus) << "authority " << a;
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    EXPECT_EQ(outcomes[a].lists_in_agreed_vote, 9u);
  }
}

TEST(SyncProtocolTest, ConsensusIdenticalEverywhere) {
  Fixture fx;
  fx.Build(200, torattack::kAuthorityLinkBps);
  const auto outcomes = fx.Run();
  const auto digest0 = tordir::ConsensusDigest(outcomes[0].consensus);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(tordir::ConsensusDigest(outcome.consensus), digest0);
  }
}

TEST(SyncProtocolTest, FiveMinuteAttackBreaksIt) {
  // The same §4 attack breaks the synchronous fix: it shares the bounded
  // synchrony assumption.
  Fixture fx;
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Minutes(5);
  attack.available_bps = torattack::kUnderAttackBps;
  fx.Build(1000, torattack::kAuthorityLinkBps, {attack});
  const auto outcomes = fx.Run();
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_FALSE(outcomes[a].valid_consensus) << "authority " << a;
  }
}

TEST(SyncProtocolTest, FailsAtSmallerRelayCountsThanCurrent) {
  // Figure 10 at 10 Mbit/s: the packed-vote phase (~9 lists per message) blows
  // through the round budget at relay counts where the current protocol is
  // still fine.
  Fixture fx;
  fx.Build(4000, torsim::MegabitsPerSecond(10));
  const auto outcomes = fx.Run();
  bool any_valid = false;
  for (const auto& outcome : outcomes) {
    any_valid = any_valid || outcome.valid_consensus;
  }
  EXPECT_FALSE(any_valid);
}

TEST(SyncProtocolTest, StillWorksAtModestScaleAndBandwidth) {
  Fixture fx;
  fx.Build(1000, torsim::MegabitsPerSecond(10));
  const auto outcomes = fx.Run();
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
  }
}

TEST(SyncProtocolTest, AgreedVoteIsTheDesignatedSenders) {
  Fixture fx;
  fx.Build(150, torattack::kAuthorityLinkBps);
  const auto outcomes = fx.Run();
  // Everyone decided the sender's packed vote, which packed all 9 lists.
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.lists_in_agreed_vote, 9u);
    EXPECT_GT(outcome.decided_at, Seconds(450) - Seconds(1));
  }
}

TEST(SyncProtocolTest, LatencyProbesOrdered) {
  Fixture fx;
  fx.Build(300, torattack::kAuthorityLinkBps);
  const auto outcomes = fx.Run();
  for (const auto& outcome : outcomes) {
    EXPECT_LT(outcome.all_lists_received_at, Seconds(150));
    EXPECT_GT(outcome.all_packed_received_at, Seconds(150));
    EXPECT_LT(outcome.all_packed_received_at, Seconds(300));
    EXPECT_GE(outcome.finished_at, Seconds(450));
    EXPECT_LT(outcome.finished_at, Seconds(600));
  }
}

}  // namespace
}  // namespace torproto
