// Quickstart: run one round of the partial-synchrony directory protocol (the
// paper's contribution) among 9 simulated authorities and print the resulting
// consensus document summary.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "src/clients/population.h"
#include "src/core/icps_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

int main() {
  // 1. A synthetic relay population and each authority's (noisy) vote over it.
  tordir::PopulationConfig population_config;
  population_config.relay_count = 2000;
  population_config.seed = 2026;
  const auto population = tordir::GeneratePopulation(population_config);

  toricc::IcpsConfig config;  // 9 authorities, f = 2, Δ = 150 s
  auto votes = tordir::MakeAllVotes(config.authority_count, population, population_config);
  std::printf("Generated %zu relays; vote documents are ~%zu KB each.\n", population.size(),
              tordir::SerializeVote(votes[0]).size() / 1024);

  // 2. A simulated authority network: 250 Mbit/s NICs, 50 ms hops.
  torsim::NetworkConfig net_config;
  net_config.node_count = config.authority_count;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  torcrypto::KeyDirectory directory(/*seed=*/42, config.authority_count);
  std::vector<toricc::IcpsAuthority*> authorities;
  for (uint32_t a = 0; a < config.authority_count; ++a) {
    authorities.push_back(static_cast<toricc::IcpsAuthority*>(harness.AddActor(
        std::make_unique<toricc::IcpsAuthority>(
            config, &directory,
            torproto::AuthorityMaterials{
                .vote = std::make_shared<const tordir::VoteDocument>(std::move(votes[a]))}))));
  }

  // 3. Run the protocol to completion (virtual time).
  harness.StartAll();
  harness.sim().Run();

  // 4. Inspect the outcome.
  const auto& outcome = authorities[0]->outcome();
  std::printf("\nAuthority 0 outcome:\n");
  std::printf("  agreement decided at   : %.2f s\n", torbase::ToSeconds(outcome.decided_at));
  std::printf("  valid consensus at     : %.2f s\n", torbase::ToSeconds(outcome.finished_at));
  std::printf("  documents in vector    : %u of %u\n", outcome.vector_non_empty,
              config.authority_count);
  std::printf("  relays in consensus    : %zu\n", outcome.consensus.relays.size());
  std::printf("  signatures collected   : %zu\n", outcome.consensus.signatures.size());

  // Every authority holds the byte-identical consensus document.
  const auto digest = tordir::ConsensusDigest(outcome.consensus);
  bool all_equal = true;
  for (const auto* authority : authorities) {
    all_equal = all_equal &&
                tordir::ConsensusDigest(authority->outcome().consensus) == digest;
  }
  std::printf("  identical on all 9     : %s\n", all_equal ? "yes" : "NO");
  std::printf("\nConsensus digest: %s\n", digest.ToHex().c_str());

  // 5. What this round means for clients: feed the publish time into the
  // consumption plane (src/clients) — a million clients fetching through
  // directory caches, integrated in closed form.
  torclients::ClientLoadSpec clients;
  clients.client_count = 1'000'000;
  const torclients::PublishedDocument published = torclients::MapToTimeline(
      /*round_start_seconds=*/0.0, torbase::ToSeconds(outcome.finished_at),
      outcome.consensus.valid_after, outcome.consensus.fresh_until, outcome.consensus.valid_until,
      static_cast<double>(tordir::SerializeConsensus(outcome.consensus).size()),
      clients.vote_lead);
  const auto availability = torclients::SimulateClientLoad(
      clients, {published}, torbase::ToSeconds(clients.evaluation_window));
  std::printf("\nClient-visible availability (1M clients, this directory period):\n");
  std::printf("  demand served fresh    : %.2f %%\n",
              100.0 * availability.fresh_fraction);
  std::printf("  client outage          : %.1f s\n", availability.outage_seconds);
  return all_equal ? 0 : 1;
}
