// Integration tests for Luo et al.'s synchronous protocol: healthy runs,
// Dolev-Strong behaviour, DDoS failure (the same attack that breaks the
// current protocol), and the earlier bandwidth collapse from its O(n^3 d) vote
// phase.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string_view>

#include "src/attack/ddos.h"
#include "src/common/serialize.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/protocols/common.h"
#include "src/protocols/sync/sync_authority.h"
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

struct Fixture {
  std::unique_ptr<torsim::Harness> harness;
  std::vector<SyncAuthority*> authorities;
  torcrypto::KeyDirectory directory{42, 9};
  // When set before Build, the authorities are wired like one runner cell
  // (tests/cell_materials.h) and share this store.
  std::shared_ptr<DocumentStore> store;
  std::vector<tordir::VoteDocument> votes;  // by authority

  // `stand_in`, when given, takes the last authority's slot.
  void Build(size_t relay_count, double bandwidth_bps,
             const std::vector<AttackWindow>& attacks = {},
             std::unique_ptr<torsim::Actor> stand_in = nullptr) {
    constexpr uint32_t kAuthorities = 9;
    tordir::PopulationConfig pop_config;
    pop_config.relay_count = relay_count;
    pop_config.seed = 5;
    const auto population = tordir::GeneratePopulation(pop_config);
    votes = tordir::MakeAllVotes(kAuthorities, population, pop_config);
    const std::vector<AuthorityMaterials> cell =
        store != nullptr ? CellMaterials(votes, store) : std::vector<AuthorityMaterials>{};

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
      authorities.push_back(static_cast<SyncAuthority*>(harness->AddActor(
          std::make_unique<SyncAuthority>(
              &directory,
              store != nullptr ? cell[a]
                               : AuthorityMaterials{.vote = std::make_shared<
                                                        const tordir::VoteDocument>(votes[a])}))));
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

// Wired like a runner cell, every holder unpacks the agreed packed vote to
// the same vote pointers: the store builds one consensus, and every holder's
// digest is that of a direct aggregation of the nine votes.
TEST(SyncProtocolTest, SharedStoreBuildsOneConsensusPerHonestRound) {
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  fx.Build(200, torattack::kAuthorityLinkBps);
  const auto outcomes = fx.Run();
  EXPECT_EQ(fx.store->builds(), 1u);
  EXPECT_EQ(fx.store->packed_digests(), 1u);
  const torcrypto::Digest256 direct =
      tordir::ConsensusDigest(tordir::ComputeConsensus(fx.votes));
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    ASSERT_TRUE(fx.authorities[a]->consensus_digest().has_value());
    EXPECT_EQ(*fx.authorities[a]->consensus_digest(), direct) << "authority " << a;
    EXPECT_EQ(tordir::ConsensusDigest(outcomes[a].consensus), direct);
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

// Stands in for the last authority: records authority 0's packed-vote frame
// and every authority's first Dolev-Strong relay, as wire bytes, and sends
// malformed packed votes of its own at the start.
class PackedVoteProbe : public torsim::Actor {
 public:
  static constexpr uint8_t kPackedVote = 2;
  static constexpr uint8_t kDsRelay = 3;

  enum class Sends { kMalformedFraming, kForgedAuthorTags, kNothing };
  explicit PackedVoteProbe(Sends sends = Sends::kMalformedFraming) : sends_(sends) {}

  void Start() override {
    if (sends_ == Sends::kMalformedFraming) {
      // Zero lists, then a trailing byte inside the packed encoding.
      torbase::Writer trailing;
      trailing.WriteU32(id());
      trailing.WriteU32(0);
      trailing.WriteU8('x');
      SendToAllOthers("SYNC_PACKED", Frame(trailing.buffer()));
      // More lists than there are authorities.
      torbase::Writer too_many;
      too_many.WriteU32(id());
      too_many.WriteU32(node_count() + 1);
      SendToAllOthers("SYNC_PACKED", Frame(too_many.buffer()));
    }
    if (sends_ == Sends::kForgedAuthorTags) {
      // One author's list twice: aggregation would count that vote twice.
      torbase::Writer repeated;
      repeated.WriteU32(id());
      repeated.WriteU32(2);
      for (int i = 0; i < 2; ++i) {
        repeated.WriteU32(SyncAuthority::kDesignatedSender);
        repeated.WriteString("relay list");
      }
      SendToAllOthers("SYNC_PACKED", Frame(repeated.buffer()));
      // An author tag outside the authority set.
      torbase::Writer out_of_range;
      out_of_range.WriteU32(id());
      out_of_range.WriteU32(1);
      out_of_range.WriteU32(node_count());
      out_of_range.WriteString("relay list");
      SendToAllOthers("SYNC_PACKED", Frame(out_of_range.buffer()));
      // Packed by another authority than the sender.
      torbase::Writer other_packer;
      other_packer.WriteU32(SyncAuthority::kDesignatedSender);
      other_packer.WriteU32(0);
      SendToAllOthers("SYNC_PACKED", Frame(other_packer.buffer()));
    }
  }

  void OnMessage(NodeId from, const torbase::Frame& payload) override {
    const torbase::Bytes wire = payload.Flatten();
    if (wire.empty()) {
      return;
    }
    if (wire[0] == kDsRelay && !ds_frames.contains(from)) {
      ds_frames.emplace(from, wire);
    }
    if (from == SyncAuthority::kDesignatedSender && wire[0] == kPackedVote &&
        packed_frame.empty()) {
      packed_frame = wire;
    }
  }

  torbase::Bytes packed_frame;
  std::map<NodeId, torbase::Bytes> ds_frames;  // first relay, by sender

 private:
  torbase::Bytes Frame(const torbase::Bytes& packed) const {
    torbase::Writer w;
    w.WriteU8(kPackedVote);
    w.WriteU32(id());
    w.WriteBytes(packed);
    return w.TakeBuffer();
  }

  const Sends sends_;
};

// The packed encoding carried by a flattened packed-vote frame.
std::string_view PackedBytes(const torbase::Bytes& packed_frame) {
  torbase::Reader r(packed_frame);
  EXPECT_TRUE(r.ReadU8().ok());
  EXPECT_EQ(*r.ReadU32(), SyncAuthority::kDesignatedSender);
  const auto packed = r.ReadStringView();
  EXPECT_TRUE(packed.ok());
  return packed.ok() ? *packed : std::string_view();
}

// The digest a flattened Dolev-Strong relay frame carries.
torcrypto::Digest256 RelayedDigest(const torbase::Bytes& ds_frame) {
  torbase::Reader r(ds_frame);
  EXPECT_TRUE(r.ReadU8().ok());
  const auto relayed = torcrypto::ReadDigest(r);
  EXPECT_TRUE(relayed.ok());
  return relayed.ok() ? *relayed : torcrypto::Digest256();
}

TEST(SyncProtocolTest, RelayedDigestIsTheHashOfThePackedVoteOnTheWire) {
  Fixture fx;
  auto probe_owner = std::make_unique<PackedVoteProbe>();
  const PackedVoteProbe* probe = probe_owner.get();
  fx.Build(120, torattack::kAuthorityLinkBps, {}, std::move(probe_owner));
  fx.Run();

  ASSERT_FALSE(probe->packed_frame.empty());
  ASSERT_TRUE(probe->ds_frames.contains(SyncAuthority::kDesignatedSender));
  EXPECT_EQ(RelayedDigest(probe->ds_frames.at(SyncAuthority::kDesignatedSender)),
            torcrypto::Digest256::Of(PackedBytes(probe->packed_frame)));
}

// Wired like a runner cell, the packed lists every holder decodes are the
// workload's texts, so the cell's store streams the designated sender's packed
// vote once, and every authority relays the SHA-256 of that vote's bytes as
// the wire carries them.
TEST(SyncProtocolTest, SharedStoreStreamsThePackedVoteDigestOnce) {
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  auto probe_owner = std::make_unique<PackedVoteProbe>(PackedVoteProbe::Sends::kNothing);
  const PackedVoteProbe* probe = probe_owner.get();
  fx.Build(200, torattack::kAuthorityLinkBps, {}, std::move(probe_owner));
  const auto outcomes = fx.Run();

  EXPECT_EQ(fx.store->packed_digests(), 1u);
  ASSERT_FALSE(probe->packed_frame.empty());
  const torcrypto::Digest256 on_the_wire =
      torcrypto::Digest256::Of(PackedBytes(probe->packed_frame));
  EXPECT_EQ(probe->ds_frames.size(), outcomes.size());
  for (const auto& [sender, ds_frame] : probe->ds_frames) {
    EXPECT_EQ(RelayedDigest(ds_frame), on_the_wire) << "authority " << sender;
  }
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    EXPECT_EQ(outcomes[a].lists_in_agreed_vote, 8u) << "authority " << a;
  }
}

TEST(SyncProtocolTest, MalformedPackedVotesAreDroppedOnArrival) {
  Fixture fx;
  fx.Build(120, torattack::kAuthorityLinkBps, {}, std::make_unique<PackedVoteProbe>());
  const auto outcomes = fx.Run();
  ASSERT_EQ(outcomes.size(), 8u);
  for (size_t a = 0; a < outcomes.size(); ++a) {
    size_t dropped = 0;
    for (const auto& record : fx.authorities[a]->log().records()) {
      dropped += record.message == "Malformed packed vote from 8; dropped.";
    }
    EXPECT_EQ(dropped, 2u) << "authority " << a;
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    EXPECT_EQ(outcomes[a].lists_in_agreed_vote, 8u) << "authority " << a;
  }
}

// A packed vote whose author tags repeat or leave the authority set, or whose
// packer is not its sender, is dropped like an undecodable one: a repeated
// tag would hand aggregation one authority's vote twice.
TEST(SyncProtocolTest, PackedVotesWithForgedAuthorTagsAreDroppedOnArrival) {
  Fixture fx;
  fx.Build(120, torattack::kAuthorityLinkBps, {},
           std::make_unique<PackedVoteProbe>(PackedVoteProbe::Sends::kForgedAuthorTags));
  const auto outcomes = fx.Run();
  ASSERT_EQ(outcomes.size(), 8u);
  for (size_t a = 0; a < outcomes.size(); ++a) {
    size_t dropped = 0;
    for (const auto& record : fx.authorities[a]->log().records()) {
      dropped += record.message == "Malformed packed vote from 8; dropped.";
    }
    EXPECT_EQ(dropped, 3u) << "authority " << a;
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    EXPECT_EQ(outcomes[a].lists_in_agreed_vote, 8u) << "authority " << a;
  }
}

}  // namespace
}  // namespace torproto
