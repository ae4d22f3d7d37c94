// Tests for the ICPS core protocol (src/protocols/icps): the Definition 5.1 properties
// (termination, agreement, value validity, common-set validity), the
// dissemination proof machinery, Byzantine disseminators, document fetch
// responses, and recovery after a DDoS window (the Figure 11 scenario).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/attack/ddos.h"
#include "src/common/serialize.h"
#include "src/protocols/icps/digest_vector.h"
#include "src/protocols/icps/icps_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "tests/cell_materials.h"

namespace toricc {
namespace {

using torattack::AttackWindow;
using torbase::Minutes;
using torbase::NodeId;
using torbase::Seconds;

constexpr uint32_t kN = 9;

// A crashed authority.
class SilentActor : public torsim::Actor {
 public:
  void OnMessage(NodeId, const torbase::Frame&) override {}
};

// A Byzantine disseminator: signs and sends two different vote documents to
// the two halves of the network, then stays silent.
class EquivocatingDisseminator : public torsim::Actor {
 public:
  EquivocatingDisseminator(const torcrypto::KeyDirectory* directory, tordir::VoteDocument vote)
      : directory_(directory), vote_(std::move(vote)) {}

  void Start() override {
    tordir::VoteDocument vote_b = vote_;
    vote_b.relays[0].bandwidth += 1;  // a second, conflicting version
    const std::string text_a = tordir::SerializeVote(vote_);
    const std::string text_b = tordir::SerializeVote(vote_b);
    const auto signer = directory_->SignerFor(id());
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer == id()) {
        continue;
      }
      const std::string& text = (peer % 2 == 0) ? text_a : text_b;
      const auto digest = torcrypto::Digest256::Of(text);
      const auto sig = signer.Sign(EntryPayload(id(), digest));
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
};

// Stands in for the last authority and disseminates nothing. Once the others
// have disseminated, it asks `server` for document `wanted` by its digest, as
// an aggregation fetch does, and keeps the response frame as it was
// delivered.
class DocFetchProbe : public torsim::Actor {
 public:
  static constexpr uint8_t kDocRequest = 0x12;
  static constexpr uint8_t kDocResponse = 0x13;

  DocFetchProbe(NodeId server, NodeId wanted) : server_(server), wanted_(wanted) {}

  void Start() override {
    SetTimer(Seconds(10), [this] {
      torbase::Writer w;
      w.WriteU8(kDocRequest);
      w.WriteU32(wanted_);
      w.WriteRaw(wanted_digest.span());
      SendTo(server_, "DOC_FETCH", w.TakeBuffer());
    });
  }

  void OnMessage(NodeId from, const torbase::Frame& payload) override {
    torbase::Reader r(payload);
    auto type = r.ReadU8();
    if (from == server_ && type.ok() && *type == kDocResponse) {
      response = payload;
    }
  }

  torcrypto::Digest256 wanted_digest;  // set before the run starts
  std::optional<torbase::Frame> response;

 private:
  const NodeId server_;
  const NodeId wanted_;
};

struct Fleet {
  torcrypto::KeyDirectory directory{42, kN};
  std::unique_ptr<torsim::Harness> harness;
  std::vector<torsim::Actor*> actors;
  std::vector<tordir::VoteDocument> votes;
  // When set before Build, the authorities are wired like one runner cell
  // (tests/cell_materials.h) and share this store.
  std::shared_ptr<torproto::DocumentStore> store;
  std::vector<torproto::AuthorityMaterials> cell;  // by authority, when wired
  // When set before Build, takes the last authority's slot.
  std::unique_ptr<torsim::Actor> stand_in;

  torproto::ProtocolRunConfig Config(torbase::Duration dissemination_timeout = Seconds(150)) const {
    torproto::ProtocolRunConfig config;
    config.dissemination_timeout = dissemination_timeout;
    return config;
  }

  void Build(size_t relay_count, double bandwidth_bps, const torproto::ProtocolRunConfig& config,
             const std::set<NodeId>& silent = {}, const std::set<NodeId>& equivocators = {},
             const std::vector<AttackWindow>& attacks = {}) {
    tordir::PopulationConfig pop_config;
    pop_config.relay_count = relay_count;
    pop_config.seed = 11;
    const auto population = tordir::GeneratePopulation(pop_config);
    votes = tordir::MakeAllVotes(kN, population, pop_config);
    cell = store != nullptr ? torproto::CellMaterials(votes, store)
                            : std::vector<torproto::AuthorityMaterials>{};

    torsim::NetworkConfig net_config;
    net_config.node_count = kN;
    net_config.default_bandwidth_bps = bandwidth_bps;
    net_config.default_latency = torbase::Millis(50);
    harness = std::make_unique<torsim::Harness>(net_config);
    for (const auto& window : attacks) {
      torattack::ApplyAttack(harness->net(), window);
    }
    actors.clear();
    for (NodeId i = 0; i < kN; ++i) {
      if (stand_in != nullptr && i + 1 == kN) {
        actors.push_back(harness->AddActor(std::move(stand_in)));
      } else if (silent.count(i) > 0) {
        actors.push_back(harness->AddActor(std::make_unique<SilentActor>()));
      } else if (equivocators.count(i) > 0) {
        actors.push_back(harness->AddActor(
            std::make_unique<EquivocatingDisseminator>(&directory, votes[i])));
      } else {
        actors.push_back(harness->AddActor(
            std::make_unique<IcpsAuthority>(
                config, &directory,
                store != nullptr ? cell[i]
                                 : torproto::AuthorityMaterials{
                                       .vote = std::make_shared<const tordir::VoteDocument>(
                                           votes[i])})));
      }
    }
  }

  IcpsAuthority* Authority(NodeId i) { return static_cast<IcpsAuthority*>(actors[i]); }

  void Run(torbase::TimePoint limit = Minutes(60)) {
    harness->StartAll();
    harness->sim().RunUntil(limit);
  }
};

TEST(IcpsTest, HealthyRunDecidesAndValidatesEverywhere) {
  Fleet fleet;
  fleet.Build(400, torattack::kAuthorityLinkBps, fleet.Config());
  fleet.Run();
  for (NodeId i = 0; i < kN; ++i) {
    const auto& outcome = fleet.Authority(i)->outcome();
    EXPECT_TRUE(outcome.decided) << "authority " << i;
    EXPECT_TRUE(outcome.valid_consensus) << "authority " << i;
    ASSERT_NE(outcome.consensus, nullptr) << "authority " << i;
    EXPECT_GE(outcome.consensus->signatures.size(), 5u);
  }
  // Fast path: no dissemination timeout needed, agreement in view 1.
  EXPECT_LT(fleet.Authority(0)->outcome().finished_at, Seconds(30));
}

TEST(IcpsTest, AgreementPropertyConsensusIdentical) {
  Fleet fleet;
  fleet.Build(300, torattack::kAuthorityLinkBps, fleet.Config());
  fleet.Run();
  ASSERT_NE(fleet.Authority(0)->outcome().consensus, nullptr);
  const auto digest0 = tordir::ConsensusDigest(*fleet.Authority(0)->outcome().consensus);
  for (NodeId i = 1; i < kN; ++i) {
    ASSERT_NE(fleet.Authority(i)->outcome().consensus, nullptr) << "authority " << i;
    EXPECT_EQ(tordir::ConsensusDigest(*fleet.Authority(i)->outcome().consensus), digest0)
        << "authority " << i;
  }
}

// Wired like a runner cell, every holder resolves the agreed digests to the
// same vote pointers: the store builds one consensus, and every holder's
// digest is that of a direct aggregation of the nine votes.
TEST(IcpsTest, SharedStoreBuildsOneConsensusPerHonestRound) {
  Fleet fleet;
  fleet.store = std::make_shared<torproto::DocumentStore>();
  fleet.Build(200, torattack::kAuthorityLinkBps, fleet.Config());
  fleet.Run();
  EXPECT_EQ(fleet.store->builds(), 1u);
  const torcrypto::Digest256 direct =
      tordir::ConsensusDigest(tordir::ComputeConsensus(fleet.votes));
  for (NodeId i = 0; i < kN; ++i) {
    const IcpsAuthority* authority = fleet.Authority(i);
    EXPECT_TRUE(authority->outcome().valid_consensus) << "authority " << i;
    ASSERT_TRUE(authority->consensus_digest().has_value());
    EXPECT_EQ(*authority->consensus_digest(), direct) << "authority " << i;
    ASSERT_NE(authority->outcome().consensus, nullptr) << "authority " << i;
    EXPECT_EQ(tordir::ConsensusDigest(*authority->outcome().consensus), direct);
  }
}

// Wired like a runner cell, an honest authority answers a document fetch with
// a frame that references the text it holds, here the workload's, rather than
// a copy; the wire bytes are the response's layout all the same.
TEST(IcpsTest, DocFetchResponseReferencesTheServedText) {
  constexpr NodeId kServer = 0;
  constexpr NodeId kWanted = 3;
  auto probe_owner = std::make_unique<DocFetchProbe>(kServer, kWanted);
  DocFetchProbe* probe = probe_owner.get();
  Fleet fleet;
  fleet.store = std::make_shared<torproto::DocumentStore>();
  fleet.stand_in = std::move(probe_owner);
  fleet.Build(200, torattack::kAuthorityLinkBps, fleet.Config());
  const std::string& text = *fleet.cell[kWanted].vote_text;
  const torcrypto::Digest256 digest = torcrypto::Digest256::Of(text);
  probe->wanted_digest = digest;
  fleet.Run(Minutes(1));

  ASSERT_TRUE(probe->response.has_value());
  const torbase::Frame& response = *probe->response;
  ASSERT_EQ(response.segments.size(), 1u);
  EXPECT_EQ(response.segments[0].text.get(), fleet.cell[kWanted].vote_text.get());

  // u8 tag, u32 j, the text after its u32 length, then the author's
  // signature over its entry: u32 signer and the signature bytes.
  const torcrypto::Signature sig =
      fleet.directory.SignerFor(kWanted).Sign(EntryPayload(kWanted, digest));
  torbase::Writer layout;
  layout.WriteU8(DocFetchProbe::kDocResponse);
  layout.WriteU32(kWanted);
  layout.WriteU32(static_cast<uint32_t>(text.size()));
  layout.WriteRaw(torbase::BytesOfString(text));
  layout.WriteU32(sig.signer);
  layout.WriteRaw(sig.bytes);
  EXPECT_EQ(response.Flatten(), layout.buffer());
}

TEST(IcpsTest, ValueValidityAtGstZeroIncludesEveryDocument) {
  // GST = 0: every correct node's document must appear in the agreed vector
  // (Definition 5.1, Value Validity; Theorem A.3).
  Fleet fleet;
  fleet.Build(200, torattack::kAuthorityLinkBps, fleet.Config());
  fleet.Run();
  for (NodeId i = 0; i < kN; ++i) {
    const auto& outcome = fleet.Authority(i)->outcome();
    EXPECT_EQ(outcome.vector_non_empty, kN) << "authority " << i;
  }
}

TEST(IcpsTest, CommonSetValidityWithCrashedMinority) {
  // Two crashed authorities (f = 2): the agreed vector still contains at
  // least n - f = 7 documents and the consensus is valid.
  Fleet fleet;
  fleet.Build(200, torattack::kAuthorityLinkBps, fleet.Config(Seconds(30)),
              /*silent=*/{2, 6});
  fleet.Run();
  for (NodeId i = 0; i < kN; ++i) {
    if (i == 2 || i == 6) {
      continue;
    }
    const auto& outcome = fleet.Authority(i)->outcome();
    EXPECT_TRUE(outcome.decided) << "authority " << i;
    EXPECT_GE(outcome.vector_non_empty, kN - 2) << "authority " << i;
    EXPECT_TRUE(outcome.valid_consensus) << "authority " << i;
  }
}

TEST(IcpsTest, EquivocatingDisseminatorForcedToBottom) {
  // Node 3 sends different documents to different peers. The proposals expose
  // the two sender-signed digests, the leader emits an equivocation proof, and
  // the agreed vector carries ⟂ for node 3 — its vote is excluded from the
  // consensus, yet the protocol completes.
  Fleet fleet;
  fleet.Build(200, torattack::kAuthorityLinkBps, fleet.Config(Seconds(30)),
              /*silent=*/{}, /*equivocators=*/{3});
  fleet.Run();
  for (NodeId i = 0; i < kN; ++i) {
    if (i == 3) {
      continue;
    }
    const auto& outcome = fleet.Authority(i)->outcome();
    ASSERT_TRUE(outcome.decided) << "authority " << i;
    EXPECT_TRUE(outcome.valid_consensus) << "authority " << i;
    EXPECT_EQ(outcome.vector_non_empty, kN - 1) << "authority " << i;
  }
  // And all agree on the same consensus.
  ASSERT_NE(fleet.Authority(0)->outcome().consensus, nullptr);
  const auto digest0 = tordir::ConsensusDigest(*fleet.Authority(0)->outcome().consensus);
  for (NodeId i = 1; i < kN; ++i) {
    if (i != 3) {
      ASSERT_NE(fleet.Authority(i)->outcome().consensus, nullptr) << "authority " << i;
      EXPECT_EQ(tordir::ConsensusDigest(*fleet.Authority(i)->outcome().consensus), digest0);
    }
  }
}

TEST(IcpsTest, SurvivesFiveMinuteDdosAndRecoversQuickly) {
  // The Figure 11 scenario: 5 authorities knocked offline for 5 minutes at the
  // start; the network then returns to 250 Mbit/s. The protocol finishes
  // within seconds of the attack ending, instead of the 2100 s the lock-step
  // protocols need.
  Fleet fleet;
  AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = Minutes(5);
  attack.available_bps = 0.0;
  fleet.Build(1000, torattack::kAuthorityLinkBps, fleet.Config(), {}, {}, {attack});
  fleet.Run();
  for (NodeId i = 0; i < kN; ++i) {
    const auto& outcome = fleet.Authority(i)->outcome();
    ASSERT_TRUE(outcome.decided) << "authority " << i;
    ASSERT_TRUE(outcome.valid_consensus) << "authority " << i;
    EXPECT_GT(outcome.finished_at, Minutes(5));
    EXPECT_LT(outcome.finished_at, Minutes(5) + Seconds(90)) << "authority " << i;
  }
  // Everyone agreed.
  ASSERT_NE(fleet.Authority(0)->outcome().consensus, nullptr);
  const auto digest0 = tordir::ConsensusDigest(*fleet.Authority(0)->outcome().consensus);
  for (NodeId i = 1; i < kN; ++i) {
    ASSERT_NE(fleet.Authority(i)->outcome().consensus, nullptr) << "authority " << i;
    EXPECT_EQ(tordir::ConsensusDigest(*fleet.Authority(i)->outcome().consensus), digest0);
  }
}

TEST(IcpsTest, WorksUnderSustainedLowBandwidth) {
  // Figure 10 bottom panels: at 0.5 Mbit/s the lock-step protocols fail, but
  // ICPS tolerates arbitrary dissemination delay and still completes.
  Fleet fleet;
  fleet.Build(500, torsim::MegabitsPerSecond(0.5), fleet.Config());
  fleet.Run(Minutes(120));
  for (NodeId i = 0; i < kN; ++i) {
    const auto& outcome = fleet.Authority(i)->outcome();
    EXPECT_TRUE(outcome.decided) << "authority " << i;
    EXPECT_TRUE(outcome.valid_consensus) << "authority " << i;
  }
  // It takes minutes, not hours.
  EXPECT_GT(fleet.Authority(0)->outcome().finished_at, Seconds(30));
  EXPECT_LT(fleet.Authority(0)->outcome().finished_at, Minutes(60));
}

TEST(IcpsTest, StragglerCatchesUpAfterLongOutage) {
  // One authority is offline well past the others' completion; when it
  // returns, the decided value and signatures reach it.
  Fleet fleet;
  AttackWindow attack;
  attack.targets = {4};
  attack.start = 0;
  attack.end = Minutes(8);
  attack.available_bps = 0.0;
  fleet.Build(300, torattack::kAuthorityLinkBps, fleet.Config(Seconds(60)), {}, {}, {attack});
  fleet.Run(Minutes(30));
  // The other eight finish long before the straggler returns.
  for (NodeId i = 0; i < kN; ++i) {
    if (i == 4) {
      continue;
    }
    EXPECT_TRUE(fleet.Authority(i)->outcome().valid_consensus) << "authority " << i;
    EXPECT_LT(fleet.Authority(i)->outcome().finished_at, Minutes(8));
  }
  const auto& straggler = fleet.Authority(4)->outcome();
  EXPECT_TRUE(straggler.decided);
  EXPECT_TRUE(straggler.valid_consensus);
  EXPECT_GT(straggler.finished_at, Minutes(8));
  ASSERT_NE(straggler.consensus, nullptr);
  ASSERT_NE(fleet.Authority(0)->outcome().consensus, nullptr);
  EXPECT_EQ(tordir::ConsensusDigest(*straggler.consensus),
            tordir::ConsensusDigest(*fleet.Authority(0)->outcome().consensus));
}

// --- digest-vector unit tests -----------------------------------------------

class DigestVectorTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kF = 2;
  torcrypto::KeyDirectory directory_{42, kN};

  torcrypto::Digest256 DocDigest(NodeId j) const {
    return torcrypto::Digest256::Of("doc-" + std::to_string(j));
  }

  // Builds an honest proposal from `proposer` that saw documents from `seen`.
  Proposal MakeProposal(NodeId proposer, const std::set<NodeId>& seen) const {
    Proposal proposal;
    proposal.proposer = proposer;
    proposal.entries.resize(kN);
    const auto signer = directory_.SignerFor(proposer);
    for (NodeId j = 0; j < kN; ++j) {
      auto& entry = proposal.entries[j];
      if (seen.count(j) > 0) {
        entry.digest = DocDigest(j);
        entry.sender_sig = directory_.SignerFor(j).Sign(EntryPayload(j, entry.digest));
      }
      entry.proposer_sig = signer.Sign(EntryPayload(j, entry.digest));
    }
    return proposal;
  }

  std::set<NodeId> AllNodes() const {
    std::set<NodeId> all;
    for (NodeId i = 0; i < kN; ++i) {
      all.insert(i);
    }
    return all;
  }
};

TEST_F(DigestVectorTest, ProposalRoundTripAndVerify) {
  const Proposal proposal = MakeProposal(2, {0, 1, 2, 5});
  torbase::Writer w;
  proposal.Encode(w);
  torbase::Reader r(w.buffer());
  auto decoded = Proposal::Decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Verify(directory_, kN));
  EXPECT_EQ(decoded->proposer, 2u);
  EXPECT_TRUE(decoded->entries[0].digest.has_value());
  EXPECT_FALSE(decoded->entries[3].digest.has_value());
}

TEST_F(DigestVectorTest, ProposalVerifyRejectsForgedProposerSig) {
  Proposal proposal = MakeProposal(2, {0, 1});
  proposal.entries[0].proposer_sig =
      directory_.SignerFor(3).Sign(EntryPayload(0, proposal.entries[0].digest));
  EXPECT_FALSE(proposal.Verify(directory_, kN));
}

TEST_F(DigestVectorTest, ProposalVerifyRejectsMissingSenderSig) {
  Proposal proposal = MakeProposal(2, {0});
  proposal.entries[0].sender_sig.reset();
  EXPECT_FALSE(proposal.Verify(directory_, kN));
}

TEST_F(DigestVectorTest, BuildNeedsQuorumOfProposals) {
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN - kF - 1; ++i) {  // one short of n - f
    proposals[i] = MakeProposal(i, AllNodes());
  }
  EXPECT_FALSE(BuildCertifiedVector(proposals, kN, kF).has_value());
}

TEST_F(DigestVectorTest, BuildAllOkWhenEveryoneSawEverything) {
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN; ++i) {
    proposals[i] = MakeProposal(i, AllNodes());
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  EXPECT_EQ(vector->NonEmptyCount(), kN);
  EXPECT_TRUE(vector->Verify(directory_, kN, kF));
  for (NodeId j = 0; j < kN; ++j) {
    EXPECT_EQ(vector->entries[j].kind, VectorEntry::Kind::kOk);
    EXPECT_EQ(*vector->entries[j].digest, DocDigest(j));
  }
}

TEST_F(DigestVectorTest, BuildTimeoutEntryForUnseenSender) {
  // Nobody saw node 8's document.
  std::set<NodeId> seen = AllNodes();
  seen.erase(8);
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN - 1; ++i) {
    proposals[i] = MakeProposal(i, seen);
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  EXPECT_EQ(vector->entries[8].kind, VectorEntry::Kind::kTimeout);
  EXPECT_GE(vector->entries[8].witness_sigs.size(), kF + 1);
  EXPECT_EQ(vector->NonEmptyCount(), kN - 1);
  EXPECT_TRUE(vector->Verify(directory_, kN, kF));
}

TEST_F(DigestVectorTest, BuildEquivocationEntryFromConflictingSenderSigs) {
  // Node 0 signed two different digests; half the proposers saw each.
  std::map<NodeId, Proposal> proposals;
  const auto alt_digest = torcrypto::Digest256::Of("doc-0-evil");
  for (NodeId i = 0; i < kN; ++i) {
    Proposal proposal = MakeProposal(i, AllNodes());
    if (i % 2 == 1) {
      proposal.entries[0].digest = alt_digest;
      proposal.entries[0].sender_sig =
          directory_.SignerFor(0).Sign(EntryPayload(0, proposal.entries[0].digest));
      proposal.entries[0].proposer_sig =
          directory_.SignerFor(i).Sign(EntryPayload(0, proposal.entries[0].digest));
    }
    proposals[i] = proposal;
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  EXPECT_EQ(vector->entries[0].kind, VectorEntry::Kind::kEquivocation);
  EXPECT_FALSE(vector->entries[0].NonEmpty());
  EXPECT_TRUE(vector->Verify(directory_, kN, kF));
}

TEST_F(DigestVectorTest, BuildNotReadyWhenTooFewNonEmpty) {
  // Everyone saw only 3 documents: 6 entries are ⟂ -> not ready (needs 7).
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN; ++i) {
    proposals[i] = MakeProposal(i, {0, 1, 2});
  }
  EXPECT_FALSE(BuildCertifiedVector(proposals, kN, kF).has_value());
}

TEST_F(DigestVectorTest, VectorRoundTrip) {
  std::map<NodeId, Proposal> proposals;
  std::set<NodeId> seen = AllNodes();
  seen.erase(4);
  for (NodeId i = 0; i < kN; ++i) {
    proposals[i] = MakeProposal(i, seen);
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  auto decoded = CertifiedVector::Decode(vector->Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->NonEmptyCount(), vector->NonEmptyCount());
  EXPECT_TRUE(decoded->Verify(directory_, kN, kF));
}

TEST_F(DigestVectorTest, VerifyRejectsTooFewWitnesses) {
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN; ++i) {
    proposals[i] = MakeProposal(i, AllNodes());
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  vector->entries[2].witness_sigs.resize(kF);  // below f + 1
  EXPECT_FALSE(vector->Verify(directory_, kN, kF));
}

TEST_F(DigestVectorTest, VerifyRejectsFakeTimeoutAgainstSenderSig) {
  // An adversarial leader cannot fabricate a timeout entry without f + 1
  // signatures on ⟂: signatures on (j, h) do not verify as (j, ⟂).
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN; ++i) {
    proposals[i] = MakeProposal(i, AllNodes());
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  // Rewrite entry 0 as a timeout but keep the OK witnesses (wrong payload).
  VectorEntry fake;
  fake.kind = VectorEntry::Kind::kTimeout;
  fake.witness_sigs = vector->entries[0].witness_sigs;
  vector->entries[0] = fake;
  EXPECT_FALSE(vector->Verify(directory_, kN, kF));
}

TEST_F(DigestVectorTest, VerifyRejectsEqualEquivocationDigests) {
  std::map<NodeId, Proposal> proposals;
  for (NodeId i = 0; i < kN; ++i) {
    proposals[i] = MakeProposal(i, AllNodes());
  }
  auto vector = BuildCertifiedVector(proposals, kN, kF);
  ASSERT_TRUE(vector.has_value());
  VectorEntry fake;
  fake.kind = VectorEntry::Kind::kEquivocation;
  fake.equivocation_a = DocDigest(0);
  fake.equivocation_b = DocDigest(0);  // identical: not an equivocation
  fake.equivocation_sig_a = directory_.SignerFor(0).Sign(EntryPayload(0, fake.equivocation_a));
  fake.equivocation_sig_b = fake.equivocation_sig_a;
  vector->entries[0] = fake;
  EXPECT_FALSE(vector->Verify(directory_, kN, kF));
}

TEST_F(DigestVectorTest, EntryPayloadDistinguishesBottomFromDigest) {
  const auto digest = DocDigest(0);
  EXPECT_NE(EntryPayload(0, digest), EntryPayload(0, std::nullopt));
  EXPECT_NE(EntryPayload(0, digest), EntryPayload(1, digest));
}

}  // namespace
}  // namespace toricc
