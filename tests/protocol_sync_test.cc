// Integration tests for Luo et al.'s synchronous protocol: healthy runs,
// Dolev-Strong behaviour, DDoS failure (the same attack that breaks the
// current protocol), and the earlier bandwidth collapse from its O(n^3 d) vote
// phase.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/common/serialize.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/common.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/scenario/runner.h"
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

constexpr uint32_t kAuthorities = 9;

std::vector<tordir::VoteDocument> NineVotes(size_t relay_count) {
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = relay_count;
  pop_config.seed = 5;
  return tordir::MakeAllVotes(kAuthorities, tordir::GeneratePopulation(pop_config), pop_config);
}

// A synchronous authority that also keeps, by sender, the agreed value each
// peer's first Dolev-Strong relay carries.
class RelayRecordingAuthority : public SyncAuthority {
 public:
  static constexpr uint8_t kDsRelay = 3;

  using SyncAuthority::SyncAuthority;

  void OnMessage(NodeId from, const torbase::Frame& payload) override {
    torbase::Reader r(payload);
    auto type = r.ReadU8();
    if (type.ok() && *type == kDsRelay && !relayed.contains(from)) {
      auto value = torcrypto::ReadDigest(r);
      if (value.ok()) {
        relayed.emplace(from, *value);
      }
    }
    SyncAuthority::OnMessage(from, payload);
  }

  std::map<NodeId, torcrypto::Digest256> relayed;
};

struct Fixture {
  std::unique_ptr<torsim::Harness> harness;
  std::vector<RelayRecordingAuthority*> authorities;
  torcrypto::KeyDirectory directory{42, kAuthorities};
  // When set before Build, the authorities are wired like one runner cell
  // (tests/cell_materials.h) and share this store.
  std::shared_ptr<DocumentStore> store;
  std::vector<tordir::VoteDocument> votes;  // by authority

  // `stand_in`, when given, takes the last authority's slot.
  void Build(size_t relay_count, double bandwidth_bps,
             const std::vector<AttackWindow>& attacks = {},
             std::unique_ptr<torsim::Actor> stand_in = nullptr) {
    votes = NineVotes(relay_count);
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
      authorities.push_back(static_cast<RelayRecordingAuthority*>(harness->AddActor(
          std::make_unique<RelayRecordingAuthority>(
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
  const auto digest0 = tordir::ConsensusDigest(*outcomes[0].consensus);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(tordir::ConsensusDigest(*outcome.consensus), digest0);
  }
}

// Wired like a runner cell, every holder unpacks the agreed packed vote to
// the same vote pointers: the store builds one consensus, and every holder's
// digest is that of a direct aggregation of the nine votes. Every list is a
// workload text, so no holder hashes one: the text table stays empty.
TEST(SyncProtocolTest, SharedStoreBuildsOneConsensusPerHonestRound) {
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  fx.Build(200, torattack::kAuthorityLinkBps);
  const auto outcomes = fx.Run();
  EXPECT_EQ(fx.store->builds(), 1u);
  EXPECT_EQ(fx.store->texts(), 0u);
  const torcrypto::Digest256 direct =
      tordir::ConsensusDigest(tordir::ComputeConsensus(fx.votes));
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    ASSERT_TRUE(fx.authorities[a]->consensus_digest().has_value());
    EXPECT_EQ(*fx.authorities[a]->consensus_digest(), direct) << "authority " << a;
    EXPECT_EQ(tordir::ConsensusDigest(*outcomes[a].consensus), direct);
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

// Five of nine authorities flooded for five minutes, the designated sender
// among them, wired like a runner cell: every holder that extracts the agreed
// value checks only the designated sender's packed vote against it, since a
// packed vote names its packer and no other can match, and values it from
// the vote cache's digests, so the cell hashes no list text even where a
// holder never received the sender's packed vote. The run's result is the
// reference runner's, whose holders hash every list of that packed vote.
TEST(SyncProtocolTest, FloodedWiredCellHashesNoListAndMatchesTheReferenceRunner) {
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Minutes(5);
  attack.available_bps = torattack::kUnderAttackBps;
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  fx.Build(2000, torattack::kAuthorityLinkBps, {attack});
  fx.Run();
  EXPECT_EQ(fx.store->texts(), 0u);

  torscenario::ScenarioSpec spec;
  spec.protocol = "synchronous";
  spec.relay_count = 2000;
  spec.attack =
      std::make_shared<torattack::WindowedAttack>(std::vector<AttackWindow>{attack});
  torscenario::ScenarioRunner fast;
  fast.set_memoize(false);
  torscenario::ScenarioRunner reference;
  reference.set_reference(true);
  EXPECT_TRUE(torscenario::BitIdentical(fast.Run(spec), reference.Run(spec)));
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

// The agreed value by its definition, written out here rather than taken
// from the library: the SHA-256 of u32 packer, u32 count, then per list u32
// author and the SHA-256 of the list's bytes.
torcrypto::Digest256 ValueOf(NodeId packer,
                             const std::vector<std::pair<NodeId, std::string_view>>& lists) {
  torbase::Writer w;
  w.WriteU32(packer);
  w.WriteU32(static_cast<uint32_t>(lists.size()));
  for (const auto& [author, text] : lists) {
    w.WriteU32(author);
    w.WriteRaw(torcrypto::Digest256::Of(text).span());
  }
  return torcrypto::Digest256::Of(w.buffer());
}

// The agreed value of a flattened packed-vote frame, recomputed from its
// bytes: decodes the packer, the count and each (author, text).
torcrypto::Digest256 ValueOnTheWire(const torbase::Bytes& packed_frame) {
  const std::string_view packed = PackedBytes(packed_frame);
  torbase::Reader r(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(packed.data()), packed.size()));
  const auto packer = r.ReadU32();
  const auto count = r.ReadU32();
  EXPECT_TRUE(packer.ok() && count.ok());
  std::vector<std::pair<NodeId, std::string_view>> lists;
  for (uint32_t i = 0; count.ok() && i < *count; ++i) {
    const auto author = r.ReadU32();
    const auto text = r.ReadStringView();
    EXPECT_TRUE(author.ok() && text.ok());
    if (author.ok() && text.ok()) {
      lists.emplace_back(*author, *text);
    }
  }
  EXPECT_TRUE(r.AtEnd());
  return ValueOf(packer.ok() ? *packer : torbase::kNoNode, lists);
}

// The value a flattened Dolev-Strong relay frame carries.
torcrypto::Digest256 RelayedValue(const torbase::Bytes& ds_frame) {
  torbase::Reader r(ds_frame);
  EXPECT_TRUE(r.ReadU8().ok());
  const auto relayed = torcrypto::ReadDigest(r);
  EXPECT_TRUE(relayed.ok());
  return relayed.ok() ? *relayed : torcrypto::Digest256();
}

// Built without the cell's store or the vote cache, the designated sender
// hashes each of its lists itself and relays the value of the packed vote
// the wire carries.
TEST(SyncProtocolTest, RelayedValueHashesTheListDigestsOfThePackedVoteOnTheWire) {
  Fixture fx;
  auto probe_owner = std::make_unique<PackedVoteProbe>();
  const PackedVoteProbe* probe = probe_owner.get();
  fx.Build(120, torattack::kAuthorityLinkBps, {}, std::move(probe_owner));
  fx.Run();

  ASSERT_FALSE(probe->packed_frame.empty());
  ASSERT_TRUE(probe->ds_frames.contains(SyncAuthority::kDesignatedSender));
  EXPECT_EQ(RelayedValue(probe->ds_frames.at(SyncAuthority::kDesignatedSender)),
            ValueOnTheWire(probe->packed_frame));
}

// Wired like a runner cell, the packed lists every holder decodes are the
// workload's texts, so every holder takes their digests from the vote cache
// and the cell hashes no list text, yet every authority relays the value of
// the packed vote's bytes as the wire carries them.
TEST(SyncProtocolTest, SharedStoreHoldersRelayTheWireValueWithoutHashingAList) {
  Fixture fx;
  fx.store = std::make_shared<DocumentStore>();
  auto probe_owner = std::make_unique<PackedVoteProbe>(PackedVoteProbe::Sends::kNothing);
  const PackedVoteProbe* probe = probe_owner.get();
  fx.Build(200, torattack::kAuthorityLinkBps, {}, std::move(probe_owner));
  const auto outcomes = fx.Run();

  EXPECT_EQ(fx.store->texts(), 0u);
  ASSERT_FALSE(probe->packed_frame.empty());
  const torcrypto::Digest256 on_the_wire = ValueOnTheWire(probe->packed_frame);
  EXPECT_EQ(probe->ds_frames.size(), outcomes.size());
  for (const auto& [sender, ds_frame] : probe->ds_frames) {
    EXPECT_EQ(RelayedValue(ds_frame), on_the_wire) << "authority " << sender;
  }
  for (size_t a = 0; a < outcomes.size(); ++a) {
    EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
    EXPECT_EQ(outcomes[a].lists_in_agreed_vote, 8u) << "authority " << a;
  }
}

// No result holds the agreed value, so this is the one differential that
// sees it: one honest cell run wired like a runner cell (list digests from
// the vote cache) and bare (each holder hashes its own copies), where every
// authority must relay the same value.
TEST(SyncProtocolTest, WiredAndBareHoldersRelayTheSameAgreedValue) {
  std::map<NodeId, torcrypto::Digest256> relayed[2];  // wired, bare; by sender
  for (const bool wired : {true, false}) {
    Fixture fx;
    if (wired) {
      fx.store = std::make_shared<DocumentStore>();
    }
    fx.Build(200, torattack::kAuthorityLinkBps);
    const auto outcomes = fx.Run();
    std::map<NodeId, torcrypto::Digest256>& by_sender = relayed[wired ? 0 : 1];
    for (size_t a = 0; a < outcomes.size(); ++a) {
      EXPECT_TRUE(outcomes[a].valid_consensus) << "authority " << a;
      // Every receiver saw the same value from each sender.
      for (const auto& [sender, value] : fx.authorities[a]->relayed) {
        EXPECT_EQ(by_sender.emplace(sender, value).first->second, value)
            << "authority " << a << " from " << sender;
      }
    }
    if (wired) {
      EXPECT_EQ(fx.store->texts(), 0u);
    }
  }
  EXPECT_EQ(relayed[0].size(), kAuthorities);
  EXPECT_EQ(relayed[0], relayed[1]);
}

// The value binds every list's bytes and author tag: one flipped byte in one
// list, or two lists' author tags swapped, changes it. A list the vote cache
// does not hold (the flipped text, an equivocation variant, a malformed vote)
// enters with the SHA-256 of its own bytes, from the cell's text table on a
// wired holder and from its own hash on a bare one.
TEST(SyncProtocolTest, AgreedValueBindsEveryListsBytesAndAuthorTag) {
  const std::vector<tordir::VoteDocument> votes = NineVotes(200);
  auto store = std::make_shared<DocumentStore>();
  const std::vector<AuthorityMaterials> cell = CellMaterials(votes, store);
  const torcrypto::KeyDirectory directory(42, kAuthorities);
  SyncAuthority wired(&directory, cell[0]);
  SyncAuthority bare(&directory, AuthorityMaterials{.vote = cell[0].vote});

  // Packed by authority 0, each text under its index as author tag.
  auto packed_of = [&](std::vector<std::shared_ptr<const std::string>> texts) {
    PackedVote packed;
    for (NodeId author = 0; author < texts.size(); ++author) {
      packed.lists.emplace_back(author, std::move(texts[author]));
    }
    return packed;
  };
  auto value_of = [](const PackedVote& packed) {
    std::vector<std::pair<NodeId, std::string_view>> lists;
    for (const auto& [author, text] : packed.lists) {
      lists.emplace_back(author, *text);
    }
    return ValueOf(packed.packer, lists);
  };
  std::vector<std::shared_ptr<const std::string>> canonical;
  for (const AuthorityMaterials& m : cell) {
    canonical.push_back(m.vote_text);
  }
  const PackedVote honest = packed_of(canonical);
  const torcrypto::Digest256 honest_value = value_of(honest);
  EXPECT_EQ(wired.AgreedValue(honest), honest_value);
  EXPECT_EQ(bare.AgreedValue(honest), honest_value);
  EXPECT_EQ(store->texts(), 0u);

  std::string flipped = *canonical[3];
  flipped[flipped.size() / 2] ^= 0x01;
  std::vector<std::shared_ptr<const std::string>> with_flip = canonical;
  with_flip[3] = std::make_shared<const std::string>(flipped);
  const PackedVote one_byte = packed_of(with_flip);
  EXPECT_NE(value_of(one_byte), honest_value);
  EXPECT_EQ(wired.AgreedValue(one_byte), value_of(one_byte));
  EXPECT_EQ(bare.AgreedValue(one_byte), value_of(one_byte));

  PackedVote swapped = honest;
  std::swap(swapped.lists[1].first, swapped.lists[2].first);
  EXPECT_NE(value_of(swapped), honest_value);
  EXPECT_EQ(wired.AgreedValue(swapped), value_of(swapped));
  EXPECT_EQ(bare.AgreedValue(swapped), value_of(swapped));

  const ByzantineSpec spec;
  const std::shared_ptr<const std::string> faulty[] = {
      MakeFaultyMaterials(cell[5], ByzantineBehavior::kEquivocate, spec, 5).second_vote_text,
      MakeFaultyMaterials(cell[6], ByzantineBehavior::kMalformedWire, spec, 6).vote_text};
  for (const std::shared_ptr<const std::string>& text : faulty) {
    ASSERT_NE(text, nullptr);
    std::vector<std::shared_ptr<const std::string>> with_faulty = canonical;
    with_faulty[7] = text;
    const PackedVote packed = packed_of(with_faulty);
    EXPECT_NE(value_of(packed), honest_value);
    EXPECT_EQ(wired.AgreedValue(packed), value_of(packed));
    EXPECT_EQ(bare.AgreedValue(packed), value_of(packed));
  }
  // The wired holder hashed each of the three texts the workload lacks once,
  // in the cell's text table.
  EXPECT_EQ(store->texts(), 3u);
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
