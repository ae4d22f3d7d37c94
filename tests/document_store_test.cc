// Tests for the per-cell DocumentStore (src/protocols/document_store.h): its
// identity key (the ordered vote pointers) hits only on the very same list,
// a hit is exactly the direct aggregation, and byzantine authorities built
// from faulty materials still reach the cell's store.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/attack/ddos.h"
#include "src/protocols/authority_core.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/directory_protocol.h"
#include "src/protocols/document_store.h"
#include "src/sim/actor.h"
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

// A replay+inflate cell of the deployed protocol. Every receiver parses its
// own copy of the inflated vote, and the faulty authorities aggregate their
// own documents, so all nine holders aggregate a distinct list: the cell's
// store builds once per holder only if the two faulty authorities reach it.
TEST(DocumentStoreTest, ReplayInflateCellAggregatesThroughTheCellsStore) {
  const auto store = std::make_shared<DocumentStore>();
  const std::vector<AuthorityMaterials> cell = CellMaterials(MakeVotes(200), store);
  ByzantineSpec spec;
  spec.behaviors = {{2, ByzantineBehavior::kReplay}, {7, ByzantineBehavior::kInflateBandwidth}};
  const ByzantineProtocol protocol(&GetProtocol("current"), &spec);

  torcrypto::KeyDirectory directory(42, 9);
  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = torattack::kAuthorityLinkBps;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);
  std::vector<const AuthorityCore*> authorities;
  for (torbase::NodeId a = 0; a < 9; ++a) {
    authorities.push_back(dynamic_cast<const AuthorityCore*>(
        harness.AddActor(protocol.MakeAuthority(ProtocolRunConfig{}, &directory, a, cell[a]))));
    ASSERT_NE(authorities.back(), nullptr);
  }
  harness.StartAll();
  harness.sim().Run();

  size_t holders = 0;
  for (const AuthorityCore* authority : authorities) {
    holders += authority->consensus_digest().has_value() ? 1 : 0;
  }
  EXPECT_EQ(holders, 9u);
  EXPECT_EQ(store->builds(), holders);
}

}  // namespace
}  // namespace torproto
