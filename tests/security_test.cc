// Security tests across the three protocols:
//
//   * The Luo et al. equivocation attack against the deployed protocol: a
//     single compromised authority sends different votes to different peers
//     and signs both resulting consensus documents, leaving the network split
//     over two *valid* consensuses (why Table 1 marks Current "Insecure").
//   * The Synchronous protocol's Dolev-Strong round defeats the same attack.
//   * The ICPS witness-directed document fetch: nodes that never received a
//     document named by the agreed vector retrieve it from proof witnesses.
//   * Consensus freshness rules and client-side signature validation. The
//     three-hour availability horizon that turns hourly consensus failures
//     into a full network outage is pinned on RunTimeline's client plane
//     (tests/timeline_test.cc).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/protocols/icps/digest_vector.h"
#include "src/protocols/icps/icps_authority.h"
#include "src/protocols/common.h"
#include "src/protocols/current/current_authority.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/freshness.h"
#include "src/tordir/generator.h"

namespace {

using torbase::NodeId;
using torbase::Seconds;

torproto::AuthorityMaterials Materials(tordir::VoteDocument vote) {
  return {.vote = std::make_shared<const tordir::VoteDocument>(std::move(vote))};
}

// Builds a vote set where relay[0]'s Guard flag is set in exactly
// `guard_votes` of the honest votes — the knife-edge the equivocator exploits.
std::vector<tordir::VoteDocument> MakeKnifeEdgeVotes(uint32_t n, uint32_t guard_votes) {
  tordir::PopulationConfig config;
  config.relay_count = 60;
  config.seed = 13;
  tordir::VoteViewConfig view;
  view.p_missing = 0.0;
  view.p_flag_flip = 0.0;
  const auto population = tordir::GeneratePopulation(config);
  auto votes = tordir::MakeAllVotes(n, population, config, view);
  for (uint32_t a = 0; a < n; ++a) {
    votes[a].relays[0].SetFlag(tordir::RelayFlag::kGuard, a < guard_votes + 1 && a != 0);
  }
  return votes;
}

// The compromised authority (id 0) in the *current* protocol: posts vote A
// (Guard set on relay[0]) to one half of the peers and vote B (Guard unset) to
// the other half, then signs whatever consensus digest each half computes.
class EquivocatingCurrentAuthority : public torsim::Actor {
 public:
  EquivocatingCurrentAuthority(const torcrypto::KeyDirectory* directory,
                               tordir::VoteDocument own_vote)
      : directory_(directory), vote_a_(std::move(own_vote)) {
    vote_b_ = vote_a_;
    vote_a_.relays[0].SetFlag(tordir::RelayFlag::kGuard, true);
    vote_b_.relays[0].SetFlag(tordir::RelayFlag::kGuard, false);
  }

  void Start() override {
    // Round 1: equivocate the vote.
    const std::string text_a = tordir::SerializeVote(vote_a_);
    const std::string text_b = tordir::SerializeVote(vote_b_);
    for (NodeId peer = 1; peer < node_count(); ++peer) {
      torbase::Writer w;
      w.WriteU8(1);  // kVotePost
      w.WriteU64(now());
      w.WriteString(peer <= 4 ? text_a : text_b);
      SendTo(peer, "VOTE", w.TakeBuffer());
    }
    // Round 3: compute both consensus variants and sign both digests.
    SetTimer(2 * torproto::kRoundLength + torbase::Millis(100), [this] { SignBothForks(); });
  }

  void OnMessage(NodeId from, const torbase::Frame& payload) override {
    torbase::Reader r(payload);
    auto type = r.ReadU8();
    if (!type.ok() || *type != 1) {
      return;  // only collect honest votes
    }
    auto posted_at = r.ReadU64();
    auto text = r.ReadStringView();
    if (!posted_at.ok() || !text.ok()) {
      return;
    }
    auto parsed = tordir::ParseVote(*text);
    if (parsed.ok()) {
      honest_votes_.emplace(from, std::move(*parsed));
    }
  }

 private:
  void SignBothForks() {
    const auto signer = directory_->SignerFor(id());
    for (const tordir::VoteDocument* own : {&vote_a_, &vote_b_}) {
      std::vector<const tordir::VoteDocument*> votes;
      votes.push_back(own);
      for (const auto& [author, vote] : honest_votes_) {
        votes.push_back(&vote);
      }
      const auto consensus = tordir::ComputeConsensus(votes);
      const auto digest = tordir::ConsensusDigest(consensus);
      const auto sig = signer.Sign(digest.span());
      torbase::Writer w;
      w.WriteU8(4);  // kSigPost
      w.WriteU64(now());
      w.WriteRaw(digest.span());
      w.WriteU32(sig.signer);
      w.WriteRaw(sig.bytes);
      // Vote A went to peers 1..4; its consensus fork gets our signature
      // there, the B fork everywhere else.
      const bool is_a = own == &vote_a_;
      for (NodeId peer = 1; peer < node_count(); ++peer) {
        if ((peer <= 4) == is_a) {
          SendTo(peer, "SIG", w.buffer());
        }
      }
    }
  }

  const torcrypto::KeyDirectory* directory_;
  tordir::VoteDocument vote_a_;
  tordir::VoteDocument vote_b_;
  std::map<NodeId, tordir::VoteDocument> honest_votes_;
};

TEST(SecurityTest, CurrentProtocolSplitsUnderEquivocation) {
  // Luo et al.'s attack: one compromised authority, two valid consensuses.
  auto votes = MakeKnifeEdgeVotes(9, /*guard_votes=*/4);
  torcrypto::KeyDirectory directory(42, 9);

  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  harness.AddActor(
      std::make_unique<EquivocatingCurrentAuthority>(&directory, std::move(votes[0])));
  std::vector<torproto::CurrentAuthority*> honest;
  for (NodeId a = 1; a < 9; ++a) {
    honest.push_back(static_cast<torproto::CurrentAuthority*>(harness.AddActor(
        std::make_unique<torproto::CurrentAuthority>(&directory,
                                                     Materials(std::move(votes[a]))))));
  }
  harness.StartAll();
  harness.sim().Run();

  // Every honest authority ends up with a *valid* consensus...
  std::set<torcrypto::Digest256> digests;
  for (const auto* authority : honest) {
    ASSERT_TRUE(authority->outcome().valid_consensus);
    EXPECT_TRUE(tordir::ValidateConsensusSignatures(authority->outcome().consensus, directory, 9));
    digests.insert(tordir::ConsensusDigest(authority->outcome().consensus));
  }
  // ...but they are split across two different documents: the equivocation
  // attack succeeded against the deployed protocol.
  EXPECT_EQ(digests.size(), 2u);

  // The forks differ exactly in the Guard flag the attacker straddled.
  const auto& fork_a = honest[0]->outcome().consensus;   // authority 1 (group A)
  const auto& fork_b = honest.back()->outcome().consensus;  // authority 8 (group B)
  ASSERT_FALSE(fork_a.relays.empty());
  EXPECT_NE(fork_a.relays[0].HasFlag(tordir::RelayFlag::kGuard),
            fork_b.relays[0].HasFlag(tordir::RelayFlag::kGuard));
}

// The same equivocation against the Synchronous protocol: the compromised
// authority equivocates its relay list in the propose round but the
// Dolev-Strong round pins a single packed vote, so all honest authorities
// aggregate the same lists.
class EquivocatingSyncProposer : public torsim::Actor {
 public:
  explicit EquivocatingSyncProposer(tordir::VoteDocument vote) : vote_a_(std::move(vote)) {
    vote_b_ = vote_a_;
    vote_a_.relays[0].SetFlag(tordir::RelayFlag::kGuard, true);
    vote_b_.relays[0].SetFlag(tordir::RelayFlag::kGuard, false);
  }
  void Start() override {
    const std::string text_a = tordir::SerializeVote(vote_a_);
    const std::string text_b = tordir::SerializeVote(vote_b_);
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer == id()) {
        continue;
      }
      torbase::Writer w;
      w.WriteU8(1);  // kProposePost
      w.WriteString(peer % 2 == 0 ? text_a : text_b);
      SendTo(peer, "SYNC_PROPOSE", w.TakeBuffer());
    }
  }
  void OnMessage(NodeId, const torbase::Frame&) override {}

 private:
  tordir::VoteDocument vote_a_;
  tordir::VoteDocument vote_b_;
};

TEST(SecurityTest, SynchronousProtocolResistsVoteEquivocation) {
  auto votes = MakeKnifeEdgeVotes(9, /*guard_votes=*/4);
  torcrypto::KeyDirectory directory(42, 9);

  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  // The equivocator is authority 3 (not the designated Dolev-Strong sender).
  std::vector<torproto::SyncAuthority*> honest;
  for (NodeId a = 0; a < 9; ++a) {
    if (a == 3) {
      harness.AddActor(std::make_unique<EquivocatingSyncProposer>(std::move(votes[a])));
    } else {
      honest.push_back(static_cast<torproto::SyncAuthority*>(harness.AddActor(
          std::make_unique<torproto::SyncAuthority>(&directory,
                                                    Materials(std::move(votes[a]))))));
    }
  }
  harness.StartAll();
  harness.sim().Run();

  std::set<torcrypto::Digest256> digests;
  for (const auto* authority : honest) {
    ASSERT_TRUE(authority->outcome().valid_consensus);
    digests.insert(tordir::ConsensusDigest(authority->outcome().consensus));
  }
  // One agreed packed vote -> one consensus document.
  EXPECT_EQ(digests.size(), 1u);
}

// A disseminator that sends its (single, honestly signed) document to only a
// subset of peers and otherwise stays silent — the scenario where the ICPS
// aggregation phase must fetch the document from proof witnesses.
class SelectiveDisseminator : public torsim::Actor {
 public:
  SelectiveDisseminator(const torcrypto::KeyDirectory* directory, tordir::VoteDocument vote,
                        std::set<NodeId> recipients)
      : directory_(directory), vote_(std::move(vote)), recipients_(std::move(recipients)) {}

  void Start() override {
    const std::string text = tordir::SerializeVote(vote_);
    const auto digest = torcrypto::Digest256::Of(text);
    const auto sig = directory_->SignerFor(id()).Sign(toricc::EntryPayload(id(), digest));
    for (NodeId peer : recipients_) {
      torbase::Writer w;
      w.WriteU8(0x10);  // kDocument
      w.WriteString(text);
      w.WriteRaw(digest.span());
      w.WriteU32(sig.signer);
      w.WriteRaw(sig.bytes);
      SendTo(peer, "DOCUMENT", w.TakeBuffer());
    }
  }
  void OnMessage(NodeId, const torbase::Frame&) override {}

 private:
  const torcrypto::KeyDirectory* directory_;
  tordir::VoteDocument vote_;
  std::set<NodeId> recipients_;
};

TEST(SecurityTest, IcpsFetchesWithheldDocumentsFromWitnesses) {
  torproto::ProtocolRunConfig config;
  config.dissemination_timeout = Seconds(30);
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = 150;
  pop_config.seed = 21;
  const auto population = tordir::GeneratePopulation(pop_config);
  auto votes = tordir::MakeAllVotes(9, population, pop_config);
  torcrypto::KeyDirectory directory(42, 9);

  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  // Node 2 sends its document only to nodes 0..5: nodes 6-8 never see it
  // during dissemination, yet f+1 witnesses prove it exists.
  std::vector<toricc::IcpsAuthority*> honest;
  for (NodeId a = 0; a < 9; ++a) {
    if (a == 2) {
      harness.AddActor(std::make_unique<SelectiveDisseminator>(&directory, std::move(votes[a]),
                                                               std::set<NodeId>{0, 1, 3, 4, 5}));
    } else {
      honest.push_back(static_cast<toricc::IcpsAuthority*>(harness.AddActor(
          std::make_unique<toricc::IcpsAuthority>(config, &directory,
                                                  Materials(std::move(votes[a]))))));
    }
  }
  harness.StartAll();
  harness.sim().Run();

  std::set<torcrypto::Digest256> digests;
  for (const auto* authority : honest) {
    ASSERT_TRUE(authority->outcome().decided);
    ASSERT_TRUE(authority->outcome().valid_consensus);
    digests.insert(tordir::ConsensusDigest(authority->outcome().consensus));
  }
  EXPECT_EQ(digests.size(), 1u);
}

// --- freshness ---------------------------------------------------------------

TEST(FreshnessTest, LifecycleStates) {
  tordir::ConsensusDocument consensus;
  consensus.valid_after = 1000;
  consensus.fresh_until = 1000 + 3600;
  consensus.valid_until = 1000 + 3 * 3600;
  EXPECT_EQ(tordir::EvaluateFreshness(consensus, 1500), tordir::ConsensusFreshness::kFresh);
  EXPECT_EQ(tordir::EvaluateFreshness(consensus, 1000 + 3600),
            tordir::ConsensusFreshness::kStale);
  EXPECT_EQ(tordir::EvaluateFreshness(consensus, 1000 + 3 * 3600),
            tordir::ConsensusFreshness::kInvalid);
  EXPECT_STREQ(tordir::FreshnessName(tordir::ConsensusFreshness::kStale), "stale");
}

TEST(FreshnessTest, SignatureValidationThreshold) {
  torcrypto::KeyDirectory directory(42, 9);
  tordir::ConsensusDocument consensus;
  consensus.valid_after = 1;
  const auto digest = tordir::ConsensusDigest(consensus);
  for (NodeId a = 0; a < 4; ++a) {
    consensus.signatures.push_back(directory.SignerFor(a).Sign(digest.span()));
  }
  EXPECT_FALSE(tordir::ValidateConsensusSignatures(consensus, directory, 9));  // 4 < 5
  consensus.signatures.push_back(directory.SignerFor(4).Sign(digest.span()));
  EXPECT_TRUE(tordir::ValidateConsensusSignatures(consensus, directory, 9));
  // Duplicate signers do not help.
  tordir::ConsensusDocument dup = consensus;
  dup.signatures.assign(5, consensus.signatures[0]);
  EXPECT_FALSE(tordir::ValidateConsensusSignatures(dup, directory, 9));
  // A single bad signature taints the document.
  tordir::ConsensusDocument tainted = consensus;
  tainted.signatures[2].bytes[0] ^= 1;
  EXPECT_FALSE(tordir::ValidateConsensusSignatures(tainted, directory, 9));
}

}  // namespace
