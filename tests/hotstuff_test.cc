// Tests for the single-shot HotStuff engine: agreement/termination/validity in
// the good case, leader failures, Byzantine leaders (invalid proposals and
// equivocation), unready proposers, and loss of synchrony until a GST.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "src/attack/ddos.h"
#include "src/consensus/hotstuff.h"
#include "src/sim/actor.h"

namespace torbft {
namespace {

using torbase::Bytes;
using torbase::Seconds;

constexpr uint32_t kN = 9;
constexpr uint32_t kF = 2;
static_assert(FaultToleranceOf(kN) == kF, "9 nodes tolerate 2 byzantine faults");

// An actor hosting one HotStuffNode, with hooks for test behaviours.
class BftActor : public torsim::Actor {
 public:
  BftActor(const HotStuffConfig& config, const torcrypto::KeyDirectory* directory, Bytes proposal)
      : config_(config), directory_(directory), proposal_(std::move(proposal)) {}

  // When false, get_proposal() returns nullopt until MarkReady() is called.
  void set_initially_ready(bool ready) { ready_ = ready; }
  void MarkReady() {
    ready_ = true;
    if (node_) {
      node_->NotifyProposalReady();
    }
  }

  void Start() override {
    HotStuffNode::Callbacks callbacks;
    callbacks.send = [this](torbase::NodeId to, Bytes message) {
      SendTo(to, "BFT", std::move(message));
    };
    callbacks.set_timer = [this](torbase::Duration d, std::function<void()> fn) {
      return SetTimer(d, std::move(fn));
    };
    callbacks.cancel_timer = [this](torsim::EventId id) { CancelTimer(id); };
    callbacks.get_proposal = [this]() -> std::optional<Bytes> {
      if (!ready_) {
        return std::nullopt;
      }
      return proposal_;
    };
    callbacks.validate = [](const Bytes& value) { return !value.empty() && value[0] != 0xBA; };
    callbacks.on_decide = [this](const Bytes& value) { decided_value_ = value; };
    callbacks.now = [this]() { return now(); };
    node_.emplace(id(), config_, directory_, std::move(callbacks));
    node_->Start();
  }

  void OnMessage(torbase::NodeId from, const torbase::Frame& payload) override {
    node_->OnMessage(from, payload.head);
  }

  const std::optional<Bytes>& decided_value() const { return decided_value_; }
  HotStuffNode& node() { return *node_; }

 private:
  HotStuffConfig config_;
  const torcrypto::KeyDirectory* directory_;
  Bytes proposal_;
  bool ready_ = true;
  std::optional<HotStuffNode> node_;
  std::optional<Bytes> decided_value_;
};

// A crashed node: never sends anything.
class SilentActor : public torsim::Actor {
 public:
  void OnMessage(torbase::NodeId, const torbase::Frame&) override {}
};

// A Byzantine leader for view 1 (node id 1): sends proposal A to half the
// nodes and proposal B to the other half, then stays silent.
class EquivocatingLeader : public torsim::Actor {
 public:
  void Start() override {
    for (torbase::NodeId peer = 0; peer < node_count(); ++peer) {
      torbase::Writer w;
      w.WriteU8(2);  // kPrepare
      w.WriteU64(1);
      const char* text = (peer % 2 == 0) ? "value-A" : "value-B";
      w.WriteBytes(torbase::BytesOfString(text));
      w.WriteBool(false);  // no QC
      SendTo(peer, "BFT", w.TakeBuffer());
    }
  }
  void OnMessage(torbase::NodeId, const torbase::Frame&) override {}
};

struct Fleet {
  torcrypto::KeyDirectory directory{7, kN};
  std::unique_ptr<torsim::Harness> harness;
  std::vector<torsim::Actor*> actors;
  bool two_phase = false;

  HotStuffConfig Config() const {
    HotStuffConfig config;
    config.node_count = kN;
    config.two_phase = two_phase;
    return config;
  }

  void Build(const std::set<torbase::NodeId>& silent = {},
             const std::set<torbase::NodeId>& equivocators = {}) {
    torsim::NetworkConfig net_config;
    net_config.node_count = kN;
    net_config.default_bandwidth_bps = torsim::MegabitsPerSecond(100);
    net_config.default_latency = torbase::Millis(50);
    harness = std::make_unique<torsim::Harness>(net_config);
    actors.clear();
    for (torbase::NodeId i = 0; i < kN; ++i) {
      if (silent.count(i) > 0) {
        actors.push_back(harness->AddActor(std::make_unique<SilentActor>()));
      } else if (equivocators.count(i) > 0) {
        actors.push_back(harness->AddActor(std::make_unique<EquivocatingLeader>()));
      } else {
        Bytes proposal = torbase::BytesOfString("proposal-from-" + std::to_string(i));
        actors.push_back(harness->AddActor(
            std::make_unique<BftActor>(Config(), &directory, std::move(proposal))));
      }
    }
  }

  BftActor* Honest(torbase::NodeId i) { return static_cast<BftActor*>(actors[i]); }

  // Returns the set of decided values among honest (BftActor) nodes; fails the
  // test if honest nodes decided different values.
  std::optional<Bytes> CheckAgreement(const std::set<torbase::NodeId>& non_honest = {}) {
    std::optional<Bytes> value;
    for (torbase::NodeId i = 0; i < kN; ++i) {
      if (non_honest.count(i) > 0) {
        continue;
      }
      const auto& decided = Honest(i)->decided_value();
      if (!decided.has_value()) {
        continue;
      }
      if (value.has_value()) {
        EXPECT_EQ(*value, *decided) << "agreement violated at node " << i;
      } else {
        value = decided;
      }
    }
    return value;
  }
};

TEST(HotStuffTest, AllHonestDecideInViewOne) {
  Fleet fleet;
  fleet.Build();
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement();
  ASSERT_TRUE(value.has_value());
  // View 1's leader is node 1 (view % n), so its proposal wins.
  EXPECT_EQ(torbase::StringOfBytes(*value), "proposal-from-1");
  for (torbase::NodeId i = 0; i < kN; ++i) {
    EXPECT_TRUE(fleet.Honest(i)->decided_value().has_value()) << "node " << i;
    EXPECT_EQ(fleet.Honest(i)->node().current_view(), 1u);
  }
  // Good case decides fast: 5 protocol rounds of ~100 ms RTT.
  EXPECT_LT(fleet.harness->sim().now(), Seconds(5));
}

TEST(HotStuffTest, SilentLeaderTriggersViewChange) {
  Fleet fleet;
  fleet.Build(/*silent=*/{1});  // view-1 leader crashed
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement({1});
  ASSERT_TRUE(value.has_value());
  // View 2's leader is node 2.
  EXPECT_EQ(torbase::StringOfBytes(*value), "proposal-from-2");
  // Decision comes after the view-1 timeout.
  EXPECT_GT(fleet.harness->sim().now(), Seconds(20));
}

TEST(HotStuffTest, ToleratesFSilentNodes) {
  Fleet fleet;
  fleet.Build(/*silent=*/{4, 7});  // two non-leader crashes (f = 2)
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  for (torbase::NodeId i = 0; i < kN; ++i) {
    if (i == 4 || i == 7) {
      continue;
    }
    EXPECT_TRUE(fleet.Honest(i)->decided_value().has_value()) << "node " << i;
  }
  fleet.CheckAgreement({4, 7});
}

TEST(HotStuffTest, MoreThanFSilentNodesBlocksProgressSafely) {
  Fleet fleet;
  fleet.Build(/*silent=*/{3, 5, 7});  // 3 > f crashes: no quorum of 7
  fleet.harness->StartAll();
  fleet.harness->sim().RunUntil(torbase::Minutes(30));
  for (torbase::NodeId i = 0; i < kN; ++i) {
    if (i == 3 || i == 5 || i == 7) {
      continue;
    }
    EXPECT_FALSE(fleet.Honest(i)->decided_value().has_value()) << "node " << i;
  }
}

TEST(HotStuffTest, EquivocatingLeaderCannotSplitDecision) {
  Fleet fleet;
  fleet.Build({}, /*equivocators=*/{1});
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement({1});
  ASSERT_TRUE(value.has_value());
  // The equivocator cannot gather a quorum on either fork; a later honest
  // leader decides, and the decided value is an honest proposal.
  EXPECT_NE(torbase::StringOfBytes(*value), "value-A");
  EXPECT_NE(torbase::StringOfBytes(*value), "value-B");
  for (torbase::NodeId i = 0; i < kN; ++i) {
    if (i == 1) {
      continue;
    }
    EXPECT_TRUE(fleet.Honest(i)->decided_value().has_value());
    EXPECT_GE(fleet.Honest(i)->node().current_view(), 2u);
  }
}

TEST(HotStuffTest, UnreadyLeaderProposesOnceNotified) {
  Fleet fleet;
  fleet.Build();
  for (torbase::NodeId i = 0; i < kN; ++i) {
    fleet.Honest(i)->set_initially_ready(false);
  }
  // All proposals become ready at t = 8 s, before the view-1 timeout (20 s).
  fleet.harness->sim().ScheduleAt(Seconds(8), [&] {
    for (torbase::NodeId i = 0; i < kN; ++i) {
      fleet.Honest(i)->MarkReady();
    }
  });
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(torbase::StringOfBytes(*value), "proposal-from-1");
  EXPECT_GT(fleet.harness->sim().now(), Seconds(8));
  EXPECT_LT(fleet.harness->sim().now(), Seconds(20));
}

TEST(HotStuffTest, DecidesAfterGstWhenMajorityWasUnreachable) {
  // Partial synchrony: 5 of 9 nodes are flooded (0 bandwidth) for 90 s — the
  // quorum of 7 is unreachable, views churn, nobody decides. After GST the
  // protocol recovers and everyone decides the same value.
  Fleet fleet;
  fleet.Build();
  torattack::AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Seconds(90);
  attack.available_bps = 0.0;
  torattack::ApplyAttack(fleet.harness->net(), attack);
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement();
  ASSERT_TRUE(value.has_value());
  for (torbase::NodeId i = 0; i < kN; ++i) {
    EXPECT_TRUE(fleet.Honest(i)->decided_value().has_value()) << "node " << i;
  }
  EXPECT_GT(fleet.harness->sim().now(), Seconds(90));
  // Recovery is prompt once synchrony returns (within a couple of view
  // timeouts, not hours).
  EXPECT_LT(fleet.harness->sim().now(), Seconds(90) + torbase::Minutes(3));
}

// Parameterized over the commit path: both the 3-phase textbook protocol and
// the Jolteon-style 2-phase variant must satisfy agreement, leader-failure
// recovery and post-GST liveness.
class HotStuffModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(HotStuffModeTest, AllHonestDecideSameValue) {
  Fleet fleet;
  fleet.two_phase = GetParam();
  fleet.Build();
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(torbase::StringOfBytes(*value), "proposal-from-1");
  for (torbase::NodeId i = 0; i < kN; ++i) {
    EXPECT_TRUE(fleet.Honest(i)->decided_value().has_value()) << "node " << i;
  }
}

TEST_P(HotStuffModeTest, SilentLeaderRecovery) {
  Fleet fleet;
  fleet.two_phase = GetParam();
  fleet.Build(/*silent=*/{1});
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement({1});
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(torbase::StringOfBytes(*value), "proposal-from-2");
}

TEST_P(HotStuffModeTest, EquivocatingLeaderSafe) {
  Fleet fleet;
  fleet.two_phase = GetParam();
  fleet.Build({}, /*equivocators=*/{1});
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement({1});
  ASSERT_TRUE(value.has_value());
  EXPECT_NE(torbase::StringOfBytes(*value), "value-A");
  EXPECT_NE(torbase::StringOfBytes(*value), "value-B");
}

TEST_P(HotStuffModeTest, RecoversAfterGst) {
  Fleet fleet;
  fleet.two_phase = GetParam();
  fleet.Build();
  torattack::AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Seconds(90);
  attack.available_bps = 0.0;
  torattack::ApplyAttack(fleet.harness->net(), attack);
  fleet.harness->StartAll();
  fleet.harness->sim().Run();
  const auto value = fleet.CheckAgreement();
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(fleet.harness->sim().now(), Seconds(90));
}

INSTANTIATE_TEST_SUITE_P(CommitPaths, HotStuffModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TwoPhase" : "ThreePhase";
                         });

TEST(HotStuffTest, TwoPhaseIsOneRoundTripFaster) {
  auto run = [](bool two_phase) {
    Fleet fleet;
    fleet.two_phase = two_phase;
    fleet.Build();
    fleet.harness->StartAll();
    fleet.harness->sim().Run();
    EXPECT_TRUE(fleet.Honest(0)->decided_value().has_value());
    return fleet.harness->sim().now();
  };
  const torbase::TimePoint three_phase = run(false);
  const torbase::TimePoint two_phase = run(true);
  // Skipping the pre-commit phase saves two message hops (leader broadcast +
  // votes) of ~50 ms latency each.
  EXPECT_LT(two_phase, three_phase);
  EXPECT_NEAR(static_cast<double>(three_phase - two_phase), 2.0 * 50e3, 30e3);
}

TEST(HotStuffTest, QuorumCertRoundTripAndVerification) {
  torcrypto::KeyDirectory directory(7, kN);
  QuorumCert qc;
  qc.phase = Phase::kPrepare;
  qc.view = 3;
  qc.digest = torcrypto::Digest256::Of("value");
  const torbase::Bytes payload = VotePayload(qc.phase, qc.view, qc.digest);
  for (torbase::NodeId i = 0; i < 7; ++i) {
    qc.signatures.push_back(directory.SignerFor(i).Sign(payload));
  }
  EXPECT_TRUE(qc.Verify(directory, 7));

  torbase::Writer w;
  qc.Encode(w);
  torbase::Reader r(w.buffer());
  auto decoded = QuorumCert::Decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, qc);
}

TEST(HotStuffTest, QuorumCertRejectsDuplicateSigners) {
  torcrypto::KeyDirectory directory(7, kN);
  QuorumCert qc;
  qc.phase = Phase::kCommit;
  qc.view = 1;
  qc.digest = torcrypto::Digest256::Of("value");
  const torbase::Bytes payload = VotePayload(qc.phase, qc.view, qc.digest);
  const auto sig = directory.SignerFor(0).Sign(payload);
  for (int i = 0; i < 7; ++i) {
    qc.signatures.push_back(sig);  // 7 copies of one signer
  }
  EXPECT_FALSE(qc.Verify(directory, 7));
}

TEST(HotStuffTest, QuorumCertRejectsWrongPayloadSignatures) {
  torcrypto::KeyDirectory directory(7, kN);
  QuorumCert qc;
  qc.phase = Phase::kPrepare;
  qc.view = 1;
  qc.digest = torcrypto::Digest256::Of("value");
  for (torbase::NodeId i = 0; i < 7; ++i) {
    // Signatures over a different view's payload.
    qc.signatures.push_back(
        directory.SignerFor(i).Sign(VotePayload(qc.phase, 2, qc.digest)));
  }
  EXPECT_FALSE(qc.Verify(directory, 7));
}

}  // namespace
}  // namespace torbft
