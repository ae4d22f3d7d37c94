// Integration tests for the Current (deployed v3) directory protocol under the
// simulator: healthy runs, the paper's DDoS scenarios (§4), fetch-round
// recovery, fetch responses, and the Figure 1 log lines.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "src/attack/ddos.h"
#include "src/common/serialize.h"
#include "src/protocols/common.h"
#include "src/protocols/current/current_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "tests/cell_materials.h"

namespace torproto {
namespace {

using torattack::AttackWindow;
using torbase::Minutes;
using torbase::Seconds;

// Stands in for the last authority and posts no vote. Once the vote round is
// over it asks `server` for every other authority's vote, as a fetch round
// does, and keeps the response frame as it was delivered.
class VoteFetchProbe : public torsim::Actor {
 public:
  static constexpr uint8_t kVoteRequest = 2;
  static constexpr uint8_t kVoteResponse = 3;

  explicit VoteFetchProbe(NodeId server) : server_(server) {}

  void Start() override {
    SetTimer(kRoundLength, [this] {
      request_time = now();
      torbase::Writer w;
      w.WriteU8(kVoteRequest);
      w.WriteU64(request_time);
      w.WriteU32(id());  // authorities 0 .. id() - 1
      for (NodeId a = 0; a < id(); ++a) {
        w.WriteU32(a);
      }
      SendTo(server_, "VOTE_FETCH", w.TakeBuffer());
    });
  }

  void OnMessage(NodeId from, const torbase::Frame& payload) override {
    torbase::Reader r(payload);
    auto type = r.ReadU8();
    if (from == server_ && type.ok() && *type == kVoteResponse) {
      response = payload;
    }
  }

  torbase::TimePoint request_time = 0;
  std::optional<torbase::Frame> response;

 private:
  const NodeId server_;
};

// Every authority's outcome from one run.
struct RunResult {
  std::vector<AuthorityOutcome> outcomes;

  // The run succeeds if at least one authority assembled a valid consensus;
  // in healthy runs all of them do.
  bool Succeeded() const { return ValidCount() > 0; }

  uint32_t ValidCount() const {
    uint32_t count = 0;
    for (const auto& outcome : outcomes) {
      count += outcome.valid_consensus ? 1 : 0;
    }
    return count;
  }
};

struct Fixture {
  std::unique_ptr<torsim::Harness> harness;
  std::vector<CurrentAuthority*> authorities;
  torcrypto::KeyDirectory directory{42, 9};
  // When set before Build, the authorities are wired like one runner cell
  // (tests/cell_materials.h) and share this store.
  std::shared_ptr<DocumentStore> store;
  // When set before Build, takes the last authority's slot.
  std::unique_ptr<torsim::Actor> stand_in;
  std::vector<tordir::VoteDocument> votes;  // by authority
  std::vector<AuthorityMaterials> cell;     // by authority, when wired

  // Builds a 9-authority network with `relay_count` relays and the given
  // uniform authority bandwidth.
  void Build(size_t relay_count, double bandwidth_bps,
             const std::vector<AttackWindow>& attacks = {}) {
    constexpr uint32_t kAuthorities = 9;
    tordir::PopulationConfig pop_config;
    pop_config.relay_count = relay_count;
    pop_config.seed = 7;
    const auto population = tordir::GeneratePopulation(pop_config);
    votes = tordir::MakeAllVotes(kAuthorities, population, pop_config);
    cell = store != nullptr ? CellMaterials(votes, store) : std::vector<AuthorityMaterials>{};

    torsim::NetworkConfig net_config;
    net_config.node_count = kAuthorities;
    net_config.default_bandwidth_bps = bandwidth_bps;
    net_config.default_latency = torbase::Millis(50);
    harness = std::make_unique<torsim::Harness>(net_config);
    for (const auto& window : attacks) {
      torattack::ApplyAttack(harness->net(), window);
    }
    authorities.clear();
    for (uint32_t a = 0; a < kAuthorities; ++a) {
      if (stand_in != nullptr && a + 1 == kAuthorities) {
        harness->AddActor(std::move(stand_in));
        break;
      }
      authorities.push_back(static_cast<CurrentAuthority*>(harness->AddActor(
          std::make_unique<CurrentAuthority>(
              &directory,
              store != nullptr ? cell[a]
                               : AuthorityMaterials{.vote = std::make_shared<
                                                        const tordir::VoteDocument>(votes[a])}))));
    }
  }

  RunResult Run() {
    harness->StartAll();
    harness->sim().Run();
    RunResult result;
    for (auto* authority : authorities) {
      EXPECT_TRUE(authority->finished());
      result.outcomes.push_back(authority->outcome());
    }
    return result;
  }
};

TEST(CurrentProtocolTest, HealthyRunAllAuthoritiesValid) {
  Fixture fx;
  fx.Build(300, torattack::kAuthorityLinkBps);
  const RunResult result = fx.Run();
  ASSERT_TRUE(result.Succeeded());
  EXPECT_EQ(result.ValidCount(), 9u);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.computed_consensus);
    EXPECT_EQ(outcome.votes_held, 9u);
    EXPECT_GE(outcome.signatures_held, 5u);
    EXPECT_LT(outcome.all_votes_received_at, Seconds(150));
  }
}

TEST(CurrentProtocolTest, HealthyRunConsensusIdenticalEverywhere) {
  Fixture fx;
  fx.Build(200, torattack::kAuthorityLinkBps);
  const RunResult result = fx.Run();
  ASSERT_NE(result.outcomes[0].consensus, nullptr);
  const auto digest0 = tordir::ConsensusDigest(*result.outcomes[0].consensus);
  for (const auto& outcome : result.outcomes) {
    ASSERT_NE(outcome.consensus, nullptr);
    EXPECT_EQ(tordir::ConsensusDigest(*outcome.consensus), digest0);
  }
  EXPECT_GT(result.outcomes[0].consensus->relays.size(), 190u);
}

// Wired like a runner cell, an honest round's nine holders aggregate the same
// vote pointers: the store builds one consensus, and every holder's digest is
// that of a direct aggregation of the nine votes.
TEST(CurrentProtocolTest, SharedStoreBuildsOneConsensusPerHonestRound) {
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  fx.Build(200, torattack::kAuthorityLinkBps);
  const RunResult result = fx.Run();
  ASSERT_EQ(result.ValidCount(), 9u);
  EXPECT_EQ(fx.store->builds(), 1u);
  const torcrypto::Digest256 direct =
      tordir::ConsensusDigest(tordir::ComputeConsensus(fx.votes));
  for (const CurrentAuthority* authority : fx.authorities) {
    ASSERT_TRUE(authority->consensus_digest().has_value());
    EXPECT_EQ(*authority->consensus_digest(), direct) << "authority " << authority->id();
    ASSERT_NE(authority->outcome().consensus, nullptr);
    EXPECT_EQ(tordir::ConsensusDigest(*authority->outcome().consensus), direct);
  }
}

TEST(CurrentProtocolTest, SignaturesVerifyAgainstDigest) {
  Fixture fx;
  fx.Build(100, torattack::kAuthorityLinkBps);
  const RunResult result = fx.Run();
  ASSERT_NE(result.outcomes[3].consensus, nullptr);
  const auto& consensus = *result.outcomes[3].consensus;
  const auto digest = tordir::ConsensusDigest(consensus);
  ASSERT_GE(consensus.signatures.size(), 5u);
  for (const auto& sig : consensus.signatures) {
    EXPECT_TRUE(fx.directory.Verify(digest.span(), sig));
  }
}

// Wired like a runner cell, an honest authority answers a vote fetch with a
// frame that references the vote texts it holds, here the workload's, rather
// than copies; the wire bytes are the response's layout all the same.
TEST(CurrentProtocolTest, VoteFetchResponseReferencesTheServedTexts) {
  constexpr NodeId kServer = 0;
  auto probe_owner = std::make_unique<VoteFetchProbe>(kServer);
  const VoteFetchProbe* probe = probe_owner.get();
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  fx.stand_in = std::move(probe_owner);
  fx.Build(200, torattack::kAuthorityLinkBps);
  fx.Run();

  ASSERT_TRUE(probe->response.has_value());
  const torbase::Frame& response = *probe->response;
  const size_t served = fx.authorities.size();
  ASSERT_EQ(response.segments.size(), served);
  for (size_t a = 0; a < served; ++a) {
    EXPECT_EQ(response.segments[a].text.get(), fx.cell[a].vote_text.get()) << "author " << a;
  }

  // u8 tag, u64 request time, u32 count, then each text after its u32 length.
  torbase::Writer layout;
  layout.WriteU8(VoteFetchProbe::kVoteResponse);
  layout.WriteU64(probe->request_time);
  layout.WriteU32(static_cast<uint32_t>(served));
  for (size_t a = 0; a < served; ++a) {
    const std::string& text = *fx.cell[a].vote_text;
    layout.WriteU32(static_cast<uint32_t>(text.size()));
    layout.WriteRaw(torbase::BytesOfString(text));
  }
  EXPECT_EQ(response.Flatten(), layout.buffer());
}

TEST(CurrentProtocolTest, FiveMinuteAttackOnFiveAuthoritiesBreaksConsensus) {
  // The paper's headline attack: flood 5 of 9 authorities for the first five
  // minutes (the two vote-transfer rounds).
  Fixture fx;
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Minutes(5);
  attack.available_bps = torattack::kUnderAttackBps;
  fx.Build(1000, torattack::kAuthorityLinkBps, {attack});
  const RunResult result = fx.Run();
  EXPECT_FALSE(result.Succeeded());
  EXPECT_EQ(result.ValidCount(), 0u);
  // Unattacked authorities end up with exactly their own + 3 peers' votes.
  for (size_t a = 5; a < 9; ++a) {
    EXPECT_EQ(result.outcomes[a].votes_held, 4u) << "authority " << a;
    EXPECT_FALSE(result.outcomes[a].computed_consensus);
  }
}

TEST(CurrentProtocolTest, AttackLogMatchesFigureOne) {
  Fixture fx;
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Minutes(5);
  fx.Build(800, torattack::kAuthorityLinkBps, {attack});
  fx.Run();
  // An unattacked authority logs the Figure 1 sequence.
  const auto& log = fx.authorities[8]->log();
  EXPECT_TRUE(log.Contains("Time to fetch any votes that we're missing."));
  EXPECT_TRUE(log.Contains("We're missing votes from 5 authorities"));
  EXPECT_TRUE(log.Contains("Asking every other authority for a copy."));
  EXPECT_TRUE(log.Contains("Giving up downloading votes"));
  EXPECT_TRUE(log.Contains("Time to compute a consensus."));
  EXPECT_TRUE(log.Contains("We don't have enough votes to generate a consensus: 4 of 5"));
}

TEST(CurrentProtocolTest, AttackingFourAuthoritiesIsNotEnough) {
  // A majority must be attacked; with only 4 victims the remaining 5
  // authorities have 5 votes and produce a valid consensus.
  Fixture fx;
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(4);
  attack.start = 0;
  attack.end = Minutes(5);
  fx.Build(1000, torattack::kAuthorityLinkBps, {attack});
  const RunResult result = fx.Run();
  EXPECT_TRUE(result.Succeeded());
  for (size_t a = 4; a < 9; ++a) {
    EXPECT_TRUE(result.outcomes[a].valid_consensus) << "authority " << a;
    EXPECT_GE(result.outcomes[a].votes_held, 5u);
  }
}

TEST(CurrentProtocolTest, UniformLowBandwidthBreaksProtocolAtScale) {
  // Figure 10: at 1 Mbit/s even 1,000 relays exceed what the synchrony
  // deadline allows.
  Fixture fx;
  fx.Build(1000, torsim::MegabitsPerSecond(1));
  const RunResult result = fx.Run();
  EXPECT_FALSE(result.Succeeded());
}

TEST(CurrentProtocolTest, UniformModerateBandwidthStillWorksAtModerateScale) {
  Fixture fx;
  fx.Build(2000, torsim::MegabitsPerSecond(10));
  const RunResult result = fx.Run();
  EXPECT_TRUE(result.Succeeded());
  EXPECT_EQ(result.ValidCount(), 9u);
}

TEST(CurrentProtocolTest, FetchRoundRecoversVotesAfterShortAttack) {
  // Attack covers only the first round; fetches in round 2 run at full
  // bandwidth and recover the missing votes.
  Fixture fx;
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Seconds(150);
  attack.available_bps = 0.0;  // fully offline during round 1
  fx.Build(500, torattack::kAuthorityLinkBps, {attack});
  const RunResult result = fx.Run();
  EXPECT_TRUE(result.Succeeded());
  EXPECT_EQ(result.ValidCount(), 9u);
  // The fetch round did the recovery: all votes arrived after round 1 ended.
  for (size_t a = 5; a < 9; ++a) {
    EXPECT_GT(result.outcomes[a].all_votes_received_at, Seconds(150));
    EXPECT_LT(result.outcomes[a].all_votes_received_at, Seconds(300));
  }
}

TEST(CurrentProtocolTest, LatencyGrowsWithRelayCount) {
  Fixture small;
  small.Build(500, torsim::MegabitsPerSecond(50));
  const RunResult small_run = small.Run();
  Fixture large;
  large.Build(4000, torsim::MegabitsPerSecond(50));
  const RunResult large_run = large.Run();
  ASSERT_TRUE(small_run.Succeeded());
  ASSERT_TRUE(large_run.Succeeded());
  EXPECT_GT(large_run.outcomes[0].all_votes_received_at,
            small_run.outcomes[0].all_votes_received_at);
}

TEST(CurrentProtocolTest, OutcomeTimestampsConsistent) {
  Fixture fx;
  fx.Build(300, torattack::kAuthorityLinkBps);
  const RunResult result = fx.Run();
  for (const auto& outcome : result.outcomes) {
    ASSERT_TRUE(outcome.valid_consensus);
    // Signatures can only be collected after the compute round begins.
    EXPECT_GE(outcome.finished_at, Seconds(300));
    EXPECT_LT(outcome.finished_at, Seconds(600));
    EXPECT_LE(outcome.all_votes_received_at, outcome.finished_at);
  }
}

}  // namespace
}  // namespace torproto
