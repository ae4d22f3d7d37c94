// The paper's headline attack (§4), end to end: rent stressor capacity against
// 5 of the 9 directory authorities for the five minutes in which votes are
// exchanged, watch the deployed protocol fail, and price the attack.
//
//   ./build/examples/ddos_attack
#include <cstdio>
#include <memory>

#include "src/attack/ddos.h"
#include "src/protocols/current/current_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/generator.h"

int main() {
  std::printf("Five Minutes of DDoS Brings down Tor — attack walkthrough\n");
  std::printf("=========================================================\n\n");

  // The live network's scale: ~8,000 relays (Figure 6 average era).
  tordir::PopulationConfig population_config;
  population_config.relay_count = 8000;
  population_config.seed = 4;
  const auto population = tordir::GeneratePopulation(population_config);

  torproto::ProtocolConfig config;
  auto votes = tordir::MakeAllVotes(config.authority_count, population, population_config);

  torsim::NetworkConfig net_config;
  net_config.node_count = config.authority_count;
  net_config.default_bandwidth_bps = torattack::kAuthorityLinkBps;  // 250 Mbit/s
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  // The attack: flood authorities 0..4 for the first five minutes, leaving
  // them 0.5 Mbit/s of usable bandwidth (Jansen et al.'s measurement).
  torattack::AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = torbase::Minutes(5);
  attack.available_bps = torattack::kUnderAttackBps;
  torattack::ApplyAttack(harness.net(), attack);
  std::printf("Attack: authorities 0-4 limited to %.1f Mbit/s during [0, 5 min)\n\n",
              attack.available_bps / 1e6);

  torcrypto::KeyDirectory directory(42, config.authority_count);
  std::vector<torproto::CurrentAuthority*> authorities;
  for (uint32_t a = 0; a < config.authority_count; ++a) {
    authorities.push_back(static_cast<torproto::CurrentAuthority*>(harness.AddActor(
        std::make_unique<torproto::CurrentAuthority>(
            config, &directory,
            torproto::AuthorityMaterials{
                .vote = std::make_shared<const tordir::VoteDocument>(std::move(votes[a]))}))));
  }
  harness.StartAll();
  harness.sim().Run();

  std::printf("Log of authority 8 (not attacked) — compare with Figure 1:\n");
  std::printf("-----------------------------------------------------------\n");
  for (const auto& record : authorities[8]->log().records()) {
    if (record.level >= torbase::LogLevel::kNotice ||
        record.message.find("Giving up") != std::string::npos) {
      std::printf("%s\n", record.Format().c_str());
    }
  }

  uint32_t valid = 0;
  for (const auto* authority : authorities) {
    valid += authority->outcome().valid_consensus ? 1 : 0;
  }
  std::printf("\nResult: %u of 9 authorities produced a valid consensus.\n", valid);
  std::printf("Consensus documents expire after 3 hours; repeating this attack every hour\n");
  std::printf("takes the whole Tor network offline.\n\n");

  torattack::StressorCostModel cost;
  std::printf("Attack price (stressor-service rates from Jansen et al.):\n");
  std::printf("  one broken consensus run : $%.3f\n", cost.CostPerRunUsd());
  std::printf("  a full month of outage   : $%.2f\n", cost.CostPerMonthUsd());
  return valid == 0 ? 0 : 1;
}
