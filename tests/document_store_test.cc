// Tests for the per-cell DocumentStore (src/protocols/document_store.h): its
// identity key (the ordered vote pointers) hits only on the very same list,
// a hit is exactly the direct aggregation, and byzantine authorities built
// from faulty materials still reach the cell's store. Its signed documents
// are keyed on the body and the whole signature list, so holders share one
// only when they signed alike, and the run's health totals follow the
// documents observers admitted. Its table of received texts parses each
// faulty text once per cell, keys on the exact bytes, and leaves the window
// verdict and the refusal record to each receiver.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
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
#include "src/tordir/health_monitor.h"
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

// A signed document is the body with exactly the signature list asked for,
// built once per (body pointer, list) and shared by every later caller with
// the same list. A list that differs in a signer, in length or in one
// signature's bytes is another document, and so is an equal-content body at
// another address.
TEST(DocumentStoreTest, SignedDocumentsAreKeyedOnTheBodyAndTheWholeSignatureList) {
  DocumentStore store;
  const DocumentStore::Derived& derived = store.Derive(Share(MakeVotes(60)));
  const torcrypto::KeyDirectory directory(42, 9);
  const auto sign = [&](std::initializer_list<torbase::NodeId> signers) {
    std::vector<torcrypto::Signature> signatures;
    for (const torbase::NodeId signer : signers) {
      signatures.push_back(directory.SignerFor(signer).Sign(derived.digest.span()));
    }
    return signatures;
  };
  const auto first = store.Signed(derived.body, sign({0, 1, 2, 3, 4}));
  EXPECT_EQ(store.Signed(derived.body, sign({0, 1, 2, 3, 4})), first);
  EXPECT_EQ(store.signed_documents(), 1u);
  tordir::ConsensusDocument expected = *derived.body;
  expected.signatures = sign({0, 1, 2, 3, 4});
  EXPECT_EQ(*first, expected);
  EXPECT_TRUE(derived.body->signatures.empty());

  std::vector<torcrypto::Signature> forged = sign({0, 1, 2, 3, 4});
  forged.back().bytes[0] ^= 1;
  const auto other_signer = store.Signed(derived.body, sign({0, 1, 2, 3, 5}));
  const auto longer = store.Signed(derived.body, sign({0, 1, 2, 3, 4, 5}));
  const auto other_bytes = store.Signed(derived.body, forged);
  EXPECT_EQ(store.signed_documents(), 4u);
  for (const auto& document : {other_signer, longer, other_bytes}) {
    EXPECT_NE(document, first);
    EXPECT_EQ(document->relays, first->relays);
  }
  EXPECT_EQ(other_signer->signatures, sign({0, 1, 2, 3, 5}));
  EXPECT_EQ(longer->signatures, sign({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(other_bytes->signatures, forged);

  const auto copy = std::make_shared<const tordir::ConsensusDocument>(*derived.body);
  EXPECT_NE(store.Signed(copy, sign({0, 1, 2, 3, 4})), first);
  EXPECT_EQ(store.signed_documents(), 5u);
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

torsim::NetworkConfig CellNetwork() {
  torsim::NetworkConfig config;
  config.node_count = 9;
  config.default_bandwidth_bps = torattack::kAuthorityLinkBps;
  config.default_latency = torbase::Millis(50);
  return config;
}

// One cell of `protocol_name` at 200 relays with `spec`'s faulty
// authorities, built as the runner builds it and run to the end: every
// authority shares the workload's vote cache and `store` (null: each keeps a
// private store). `spec` must outlive the cell.
struct Cell {
  Cell(const char* protocol_name, const ByzantineSpec& spec,
       std::shared_ptr<DocumentStore> cell_store)
      : votes(MakeVotes(200)),
        store(std::move(cell_store)),
        protocol(&GetProtocol(protocol_name), &spec),
        directory(42, 9),
        harness(CellNetwork()) {
    const std::vector<AuthorityMaterials> cell = CellMaterials(votes, store);
    for (torbase::NodeId a = 0; a < 9; ++a) {
      actors.push_back(harness.AddActor(
          protocol.MakeAuthority(ProtocolRunConfig{}, &directory, a, cell[a])));
    }
    harness.StartAll();
    harness.sim().Run();
  }
  PublishedConsensus Published(torbase::NodeId a) const {
    return protocol.ProbeConsensus(*actors[a]);
  }

  std::vector<tordir::VoteDocument> votes;
  std::shared_ptr<DocumentStore> store;
  ByzantineProtocol protocol;
  torcrypto::KeyDirectory directory;
  torsim::Harness harness;
  std::vector<torsim::Actor*> actors;
};

// An honest cell of each protocol, run once wired through the cell's store
// and once with private stores. Both runs publish the same documents, since
// sharing moves no result. A holder with a private store publishes its own
// copy, whose signature list is the one it counted; with the cell's store,
// holders that counted the same list share one document, and holders with
// different lists get different ones. Every published document is the
// direct aggregation of the nine votes plus its holder's signatures in signer
// order. The lock-step holders all count nine signatures: one document. ICPS
// holders publish at the fifth they count, and arrival order varies, so the
// store builds one document per distinct list.
TEST(DocumentStoreTest, HonestHoldersShareOneSignedDocumentPerSignatureList) {
  const ByzantineSpec honest;
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    const Cell shared(protocol, honest, std::make_shared<DocumentStore>());
    const Cell alone(protocol, honest, nullptr);
    const tordir::ConsensusDocument direct = tordir::ComputeConsensus(shared.votes);
    const torcrypto::Digest256 digest = tordir::ConsensusDigest(direct);
    std::vector<std::vector<torcrypto::Signature>> lists;
    for (torbase::NodeId a = 0; a < 9; ++a) {
      const PublishedConsensus mine = shared.Published(a);
      const PublishedConsensus own = alone.Published(a);
      ASSERT_NE(mine.document, nullptr) << protocol << " holder " << a;
      ASSERT_NE(own.document, nullptr) << protocol << " holder " << a;
      const std::vector<torcrypto::Signature>& counted = own.document->signatures;
      tordir::ConsensusDocument expected = direct;
      for (size_t i = 0; i < counted.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(counted[i - 1].signer, counted[i].signer) << protocol << " holder " << a;
        }
        expected.signatures.push_back(
            shared.directory.SignerFor(counted[i].signer).Sign(digest.span()));
      }
      EXPECT_GE(counted.size(), MajorityOf(9)) << protocol << " holder " << a;
      EXPECT_EQ(*mine.document, expected) << protocol << " holder " << a;
      EXPECT_EQ(*own.document, expected) << protocol << " holder " << a;
      if (std::ranges::find(lists, counted) == lists.end()) {
        lists.push_back(counted);
      }
      for (torbase::NodeId b = 0; b < a; ++b) {
        EXPECT_EQ(mine.document == shared.Published(b).document,
                  counted == alone.Published(b).document->signatures)
            << protocol << " holders " << b << " and " << a;
        EXPECT_NE(own.document, alone.Published(b).document)
            << protocol << " holders " << b << " and " << a;
      }
    }
    EXPECT_EQ(shared.store->signed_documents(), lists.size()) << protocol;
    if (std::string_view(protocol) == "icps") {
      EXPECT_GT(lists.size(), 1u) << "no two ICPS holders published different lists";
    } else {
      EXPECT_EQ(lists.size(), 1u) << protocol;
    }
  }
}

// `current`, except that odd-numbered observers report sender 3's admitted
// vote as an inflated copy: one sender, two documents across observers.
class SplitInflation final : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "current-split-inflation"; }
  std::string_view display_name() const override { return "Current (split inflation)"; }
  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId id,
                                               AuthorityMaterials materials) const override {
    return Current().MakeAuthority(config, directory, id, std::move(materials));
  }
  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    return Current().ProbeOutcome(actor);
  }
  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    return Current().ProbeConsensus(actor);
  }
  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    std::vector<ObservedVote> observations = Current().ProbeVoteObservations(actor);
    for (ObservedVote& observed : observations) {
      if (actor.id() % 2 == 1 && observed.sender == 3) {
        tordir::VoteDocument inflated = *observed.document;
        for (tordir::RelayStatus& relay : inflated.relays) {
          relay.bandwidth *= 64;
        }
        observed.document = std::make_shared<const tordir::VoteDocument>(std::move(inflated));
      }
    }
    return observations;
  }

 private:
  static const DirectoryProtocol& Current() { return GetProtocol("current"); }
};

bool FlagsInflation(const torscenario::ScenarioResult& result, torbase::NodeId sender) {
  return std::ranges::any_of(result.health_alerts, [sender](const tordir::HealthAlert& alert) {
    return alert.kind == tordir::HealthAlertKind::kBandwidthInflation &&
           alert.authorities == std::vector<torbase::NodeId>{sender};
  });
}

// The health monitor's bandwidth evidence is summed once per distinct
// admitted document and credited to every observation of that document, not
// of its sender: observer 0 holds sender 3's honest vote, the odd observers
// an inflated one, and the inflation still shows.
TEST(DocumentStoreTest, HealthTotalsFollowEachObservedDocument) {
  RegisterProtocol(std::make_unique<SplitInflation>());
  torscenario::ScenarioSpec spec;
  spec.relay_count = 200;
  spec.seed = 13;
  torscenario::ScenarioRunner runner;
  spec.protocol = "current";
  EXPECT_FALSE(FlagsInflation(runner.Run(spec), 3));
  spec.protocol = "current-split-inflation";
  EXPECT_TRUE(FlagsInflation(runner.Run(spec), 3));
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
      const Cell cell(protocol, spec, std::make_shared<DocumentStore>());
      EXPECT_EQ(cell.store->texts(), 2u) << name;
      EXPECT_EQ(cell.store->parses(), 2u) << name;
      EXPECT_EQ(cell.store->builds(), builds.at(protocol)) << name;

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
