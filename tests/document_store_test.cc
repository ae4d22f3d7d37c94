// Tests for the per-cell DocumentStore (src/protocols/document_store.h): its
// identity key (the ordered vote pointers) hits only on the very same list,
// a hit is exactly the direct aggregation, and byzantine authorities built
// from faulty materials still reach the cell's store. Its table of received
// texts parses each faulty text once per cell, keys on the exact bytes, and
// leaves the window verdict and the refusal record to each receiver.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/attack/ddos.h"
#include "src/protocols/authority_core.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/directory_protocol.h"
#include "src/protocols/document_store.h"
#include "src/scenario/runner.h"
#include "src/sim/actor.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "tests/cell_materials.h"

namespace torproto {
namespace {

std::vector<tordir::VoteDocument> MakeVotes(size_t relay_count) {
  tordir::PopulationConfig config;
  config.relay_count = relay_count;
  config.seed = 13;
  return tordir::MakeAllVotes(9, tordir::GeneratePopulation(config), config);
}

DocumentStore::Votes Share(const std::vector<tordir::VoteDocument>& votes) {
  DocumentStore::Votes shared;
  for (const tordir::VoteDocument& vote : votes) {
    shared.push_back(std::make_shared<const tordir::VoteDocument>(vote));
  }
  return shared;
}

TEST(DocumentStoreTest, SameDocumentsInTheSameOrderBuildOnce) {
  const DocumentStore::Votes votes = Share(MakeVotes(60));
  DocumentStore store;
  const DocumentStore::Derived& first = store.Derive(votes);
  const DocumentStore::Derived& second = store.Derive(DocumentStore::Votes(votes));
  EXPECT_EQ(store.builds(), 1u);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.body, second.body);
}

TEST(DocumentStoreTest, HitEqualsTheDirectAggregationAndDigest) {
  const std::vector<tordir::VoteDocument> documents = MakeVotes(80);
  const DocumentStore::Votes votes = Share(documents);
  DocumentStore store;
  store.Derive(votes);
  const DocumentStore::Derived& hit = store.Derive(votes);
  ASSERT_EQ(store.builds(), 1u);
  const tordir::ConsensusDocument direct = tordir::ComputeConsensus(documents);
  EXPECT_EQ(*hit.body, direct);
  EXPECT_EQ(hit.digest, tordir::ConsensusDigest(direct));
  EXPECT_TRUE(hit.body->signatures.empty());
}

TEST(DocumentStoreTest, ReorderedVotesAreANewKey) {
  const DocumentStore::Votes votes = Share(MakeVotes(60));
  DocumentStore::Votes reordered = votes;
  std::swap(reordered[0], reordered[5]);
  DocumentStore store;
  const DocumentStore::Derived& first = store.Derive(votes);
  const DocumentStore::Derived& second = store.Derive(reordered);
  EXPECT_EQ(store.builds(), 2u);
  EXPECT_NE(first.body, second.body);
  // Aggregation ignores input order, so the miss costs time, not a result.
  EXPECT_EQ(first.digest, second.digest);
}

TEST(DocumentStoreTest, AnEqualContentCopyAtAnotherAddressIsANewKey) {
  const DocumentStore::Votes votes = Share(MakeVotes(60));
  DocumentStore::Votes copied = votes;
  copied[3] = std::make_shared<const tordir::VoteDocument>(*votes[3]);
  DocumentStore store;
  const DocumentStore::Derived& first = store.Derive(votes);
  const DocumentStore::Derived& second = store.Derive(copied);
  EXPECT_EQ(store.builds(), 2u);
  EXPECT_NE(first.body, second.body);
  EXPECT_EQ(first.digest, second.digest);
}

TEST(DocumentStoreTest, AChangedVoteIsANewKey) {
  const std::vector<tordir::VoteDocument> documents = MakeVotes(60);
  const DocumentStore::Votes votes = Share(documents);
  std::vector<tordir::VoteDocument> changed_documents = documents;
  changed_documents[4].relays[0].bandwidth += 1000;
  DocumentStore::Votes changed = votes;
  changed[4] = std::make_shared<const tordir::VoteDocument>(changed_documents[4]);
  DocumentStore store;
  store.Derive(votes);
  const DocumentStore::Derived& derived = store.Derive(changed);
  EXPECT_EQ(store.builds(), 2u);
  EXPECT_EQ(*derived.body, tordir::ComputeConsensus(changed_documents));
  // A dropped vote is a different list too.
  DocumentStore::Votes shorter(votes.begin(), votes.end() - 1);
  store.Derive(shorter);
  EXPECT_EQ(store.builds(), 3u);
}

// Faulty materials keep the honest ones' store, whatever the behavior, so
// byzantine authorities aggregate through their cell's store.
TEST(DocumentStoreTest, FaultyMaterialsKeepTheCellsStore) {
  const auto store = std::make_shared<DocumentStore>();
  const std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(40), store);
  const ByzantineSpec spec;
  for (const ByzantineBehavior behavior :
       {ByzantineBehavior::kEquivocate, ByzantineBehavior::kReplay,
        ByzantineBehavior::kMalformedWire, ByzantineBehavior::kInflateBandwidth}) {
    const AuthorityMaterials faulty = MakeFaultyMaterials(cell[4], behavior, spec, 4);
    EXPECT_EQ(faulty.document_store, store) << ByzantineBehaviorName(behavior);
    EXPECT_EQ(faulty.vote_cache, cell[4].vote_cache) << ByzantineBehaviorName(behavior);
  }
}

// One cell of `protocol_name` at 200 relays with `spec`'s faulty
// authorities, built as the runner builds it: every authority shares the
// workload's vote cache and the cell's store. Returns the store after the run.
std::shared_ptr<DocumentStore> RunByzantineCell(const char* protocol_name,
                                                const ByzantineSpec& spec) {
  const auto store = std::make_shared<DocumentStore>();
  const std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(200), store);
  const ByzantineProtocol protocol(&GetProtocol(protocol_name), &spec);
  torcrypto::KeyDirectory directory(42, 9);
  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = torattack::kAuthorityLinkBps;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);
  for (torbase::NodeId a = 0; a < 9; ++a) {
    harness.AddActor(protocol.MakeAuthority(ProtocolRunConfig{}, &directory, a, cell[a]));
  }
  harness.StartAll();
  harness.sim().Run();
  return store;
}

ByzantineSpec Faulty(std::map<torbase::NodeId, ByzantineBehavior> behaviors) {
  ByzantineSpec spec;
  spec.behaviors = std::move(behaviors);
  return spec;
}

// The two byzantine shapes of the benchmark's attack grid, each with two
// faulty texts no workload vote matches: the replayed and the inflated vote,
// and the equivocator's variant B and the mutated bytes. Each is parsed once
// per cell, by its first receiver, and every holder that admits it holds the
// one parsed document, so holders that admitted the same votes share one
// aggregation. The results match the reference runner's, which parses every
// delivery and aggregates per holder.
TEST(DocumentStoreTest, ByzantineCellsParseEachFaultyTextOnceAndShareAggregations) {
  const std::map<std::string, ByzantineSpec> shapes = {
      {"replay+inflate",
       Faulty({{2, ByzantineBehavior::kReplay}, {7, ByzantineBehavior::kInflateBandwidth}})},
      {"equivocate+malformed",
       Faulty({{3, ByzantineBehavior::kEquivocate}, {6, ByzantineBehavior::kMalformedWire}})},
  };
  // Distinct vote lists per cell. `current` holders aggregate the votes they
  // admitted themselves, so it builds three:
  //   replay+inflate: the seven honest holders' list (the inflated vote
  //   parsed from its text, no stale vote); the inflator's, whose own vote is
  //   its materials' document, not that parse; and the replayer's, which
  //   admits every peer's vote under its earlier period and adds its own
  //   stale one.
  //   equivocate+malformed: the list with the equivocator's variant A (the
  //   even-numbered holders and the equivocator itself); the one with variant
  //   B (the odd-numbered holders); and the malformed authority's, which adds
  //   its own document to variant A's list.
  // `synchronous` and `icps` holders aggregate the one agreed vote set: one
  // build.
  const std::map<std::string, size_t> builds = {
      {"current", 3}, {"synchronous", 1}, {"icps", 1}};
  torscenario::ScenarioRunner fast;
  fast.set_memoize(false);
  torscenario::ScenarioRunner reference;
  reference.set_reference(true);
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    for (const auto& [shape, spec] : shapes) {
      const std::string name = std::string(protocol) + "/" + shape;
      const std::shared_ptr<DocumentStore> store = RunByzantineCell(protocol, spec);
      EXPECT_EQ(store->texts(), 2u) << name;
      EXPECT_EQ(store->parses(), 2u) << name;
      EXPECT_EQ(store->builds(), builds.at(protocol)) << name;

      torscenario::ScenarioSpec scenario;
      scenario.protocol = protocol;
      scenario.relay_count = 200;
      scenario.seed = 13;
      scenario.byzantine = spec;
      const torscenario::ScenarioResult result = fast.Run(scenario);
      EXPECT_TRUE(torscenario::BitIdentical(result, reference.Run(scenario))) << name;
      EXPECT_EQ(result.faults_detected, 2u) << name;
    }
  }
}

// --- the text table under adversarial input ---------------------------------

// An authority that only admits: the test hands it texts directly.
class Receiver final : public AuthorityCore {
 public:
  using AuthorityCore::AuthorityCore;
  using AuthorityCore::Admit;
  using AuthorityCore::document_store;
  using AuthorityCore::Hold;
  using AuthorityCore::Share;
  void OnMessage(NodeId, const torbase::Frame&) override {}
  PublishedConsensus Published() const override { return {}; }
  double NetworkTimeSeconds() const override { return 0; }
  std::vector<NodeId> vote_senders() const override { return {}; }
};

// Nine receivers in one harness, built from `materials` (one per node).
struct Receivers {
  explicit Receivers(const std::vector<AuthorityMaterials>& materials)
      : directory(42, 9), harness([] {
          torsim::NetworkConfig config;
          config.node_count = 9;
          return config;
        }()) {
    for (torbase::NodeId a = 0; a < 9; ++a) {
      at.push_back(static_cast<Receiver*>(
          harness.AddActor(std::make_unique<Receiver>(&directory, materials[a]))));
    }
  }
  torcrypto::KeyDirectory directory;
  torsim::Harness harness;
  std::vector<Receiver*> at;
};

// Two texts of equal length that differ in one byte are two entries, with
// their own digests and documents: no length-only or prefix match. Without a
// vote cache even the honest vote goes through the table, next to the
// equivocator's variant B, which differs from it only in fresh_until.
TEST(DocumentStoreTest, EqualLengthTextsDifferingInOneByteAreDistinctEntries) {
  const auto store = std::make_shared<DocumentStore>();
  std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(40), store);
  const std::string honest = *cell[3].vote_text;
  const std::string variant =
      *MakeFaultyMaterials(cell[3], ByzantineBehavior::kEquivocate, ByzantineSpec{}, 3)
           .second_vote_text;
  ASSERT_EQ(honest.size(), variant.size());
  size_t differing = 0;
  for (size_t i = 0; i < honest.size(); ++i) {
    differing += honest[i] != variant[i] ? 1 : 0;
  }
  ASSERT_EQ(differing, 1u);
  for (AuthorityMaterials& materials : cell) {
    materials.vote_cache = nullptr;
  }
  Receivers receivers(cell);

  const tordir::VoteAdmission a =
      receivers.at[0]->Admit(honest, nullptr, 3, StaleBlame::kCulprit, "test");
  const tordir::VoteAdmission b =
      receivers.at[1]->Admit(variant, nullptr, 3, StaleBlame::kCulprit, "test");
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(store->texts(), 2u);
  EXPECT_EQ(store->parses(), 2u);
  EXPECT_EQ(*a.text, honest);
  EXPECT_EQ(*b.text, variant);
  EXPECT_EQ(a.digest, torcrypto::Digest256::Of(honest));
  EXPECT_EQ(b.digest, torcrypto::Digest256::Of(variant));
  EXPECT_NE(a.document, b.document);
  EXPECT_EQ(b.document->fresh_until, a.document->fresh_until + 1);

  // Held and shared, each text is its own entry's copy and digest.
  EXPECT_EQ(receivers.at[2]->Hold(variant).digest, b.digest);
  EXPECT_EQ(receivers.at[2]->Hold(honest).text, a.text);
  EXPECT_EQ(receivers.at[4]->Share(variant), b.text);
  // A prefix of an entry's own bytes, at the entry's address, is another text.
  const std::string_view prefix(a.text->data(), a.text->size() - 1);
  EXPECT_NE(receivers.at[5]->Share(prefix), a.text);
  EXPECT_EQ(store->texts(), 3u);
  EXPECT_EQ(store->parses(), 2u);
}

// The window verdict belongs to the receiver. One stale text, one parse: the
// replayer, whose period starts one period earlier, admits it, and every
// other receiver refuses it as stale, whichever asks the cell's table first.
TEST(DocumentStoreTest, TheWindowVerdictIsPerReceiverInEitherOrder) {
  for (const bool replayer_first : {true, false}) {
    const auto store = std::make_shared<DocumentStore>();
    std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(40), store);
    cell[2] = MakeFaultyMaterials(cell[2], ByzantineBehavior::kReplay, ByzantineSpec{}, 2);
    const std::string stale = *cell[2].vote_text;
    Receivers receivers(cell);

    std::vector<torbase::NodeId> order = {0, 1, 3, 4, 5, 6, 7, 8};
    order.insert(replayer_first ? order.begin() : order.end(), 2);
    for (const torbase::NodeId r : order) {
      const tordir::VoteAdmission admission =
          receivers.at[r]->Admit(stale, nullptr, torbase::kNoNode, StaleBlame::kAuthor, "test");
      if (r == 2) {
        EXPECT_TRUE(admission.status.ok()) << admission.status.ToString();
        EXPECT_TRUE(receivers.at[r]->rejected_votes().empty());
        continue;
      }
      EXPECT_EQ(admission.reason, tordir::VoteRejectReason::kStaleWindow) << r;
      EXPECT_EQ(admission.author, 2u) << r;
      // StaleBlame::kAuthor holds a stale vote against its author.
      ASSERT_EQ(receivers.at[r]->rejected_votes().size(), 1u) << r;
      EXPECT_EQ(receivers.at[r]->rejected_votes()[0].sender, 2u) << r;
    }
    EXPECT_EQ(store->texts(), 1u);
    EXPECT_EQ(store->parses(), 1u);
  }
}

// Every receiver refuses a malformed text with the same reason and status,
// parsed once, and records the refusal against the culprit it names.
TEST(DocumentStoreTest, AMalformedTextIsRefusedByEveryReceiverAgainstItsOwnCulprit) {
  const auto store = std::make_shared<DocumentStore>();
  const std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(40), store);
  const std::string malformed =
      *MakeFaultyMaterials(cell[6], ByzantineBehavior::kMalformedWire, ByzantineSpec{}, 6)
           .vote_text;
  Receivers receivers(cell);
  std::optional<std::string> status;
  for (torbase::NodeId r = 0; r < 9; ++r) {
    // Each receiver blames someone else: the wire sender, say, or no one.
    const torbase::NodeId culprit = r == 8 ? torbase::kNoNode : (r + 1) % 9;
    const tordir::VoteAdmission admission =
        receivers.at[r]->Admit(malformed, nullptr, culprit, StaleBlame::kCulprit, "test");
    EXPECT_EQ(admission.reason, tordir::VoteRejectReason::kMalformed) << r;
    EXPECT_EQ(admission.status.ToString(), status.value_or(admission.status.ToString())) << r;
    EXPECT_FALSE(admission.status.ok()) << r;
    status = admission.status.ToString();
    const std::vector<RejectedVote>& rejects = receivers.at[r]->rejected_votes();
    if (culprit == torbase::kNoNode) {
      EXPECT_TRUE(rejects.empty()) << r;
      continue;
    }
    ASSERT_EQ(rejects.size(), 1u) << r;
    EXPECT_EQ(rejects[0].sender, culprit) << r;
    EXPECT_EQ(rejects[0].reason, tordir::VoteRejectReason::kMalformed) << r;
  }
  EXPECT_EQ(store->texts(), 1u);
  EXPECT_EQ(store->parses(), 1u);
  EXPECT_EQ(*status, tordir::AdmitVote(nullptr, malformed, 0).status.ToString());
}

// An authority without the cell's store (the reference runner's) interns
// nothing: its private store's table stays empty, so every delivery is
// hashed, parsed and window-checked on its own.
TEST(DocumentStoreTest, APrivateStoreInternsNothing) {
  std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(40), nullptr);
  const std::string inflated =
      *MakeFaultyMaterials(cell[7], ByzantineBehavior::kInflateBandwidth, ByzantineSpec{}, 7)
           .vote_text;
  Receivers receivers(cell);
  Receiver& receiver = *receivers.at[0];
  const tordir::VoteAdmission first =
      receiver.Admit(inflated, nullptr, 7, StaleBlame::kCulprit, "test");
  const tordir::VoteAdmission second =
      receiver.Admit(inflated, nullptr, 7, StaleBlame::kCulprit, "test");
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_NE(first.text, second.text);
  EXPECT_NE(first.document, second.document);
  EXPECT_NE(receiver.Share(inflated), receiver.Share(inflated));
  EXPECT_EQ(receiver.Hold(inflated).digest, first.digest);
  EXPECT_EQ(receiver.document_store().texts(), 0u);
  EXPECT_EQ(receiver.document_store().parses(), 0u);
}

}  // namespace
}  // namespace torproto
