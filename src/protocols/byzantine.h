// Byzantine (faulty) authorities as a wrapper layer over any registered
// protocol. Misbehavior lives entirely in the *materials* an authority is
// constructed with — the authority code itself keeps running the honest
// protocol logic, which is exactly the threat model: a compromised authority
// feeds manipulated documents into an otherwise well-formed protocol
// exchange.
//
//   kEquivocate        — two canonical vote variants; odd peers get variant B
//                        in the initial broadcast (per-peer digest mismatch
//                        is the detection signature).
//   kReplay            — a canonical vote whose validity window closed one
//                        full period ago (replayed/stale signature window).
//   kMalformedWire     — seeded structural mutations of the canonical vote
//                        bytes (src/tordir/wire_mutator.h); none is the
//                        canonical encoding of a vote, so admission always
//                        refuses them as malformed.
//   kInflateBandwidth  — TorMult-style bandwidth multiplier on every relay
//                        the vote carries; parses and aggregates fine, caught
//                        by the monitor's median cross-check.
//
// Because the substitution happens in DirectoryProtocol::MakeAuthority +
// AuthorityMaterials, it composes with every protocol (current/sync/icps and
// downstream registrations) and with any AttackSchedule.
#ifndef SRC_PROTOCOLS_BYZANTINE_H_
#define SRC_PROTOCOLS_BYZANTINE_H_

#include <map>
#include <tuple>

#include "src/protocols/directory_protocol.h"

namespace torproto {

enum class ByzantineBehavior {
  kEquivocate,
  kReplay,
  kMalformedWire,
  kInflateBandwidth,
};

const char* ByzantineBehaviorName(ByzantineBehavior behavior);

// Which authorities misbehave and how. Part of ScenarioSpec, so everything
// here must stay deterministic and comparable. kInflateBandwidth multiplies
// by a fixed 64 (TorMult's inflation factor).
struct ByzantineSpec {
  std::map<torbase::NodeId, ByzantineBehavior> behaviors;
  // Seed for the kMalformedWire mutations (mixed with the authority id, so
  // two malformed authorities produce different bytes).
  uint64_t mutation_seed = 1;

  bool empty() const { return behaviors.empty(); }

  auto Fields() const {
    const auto& [behaviors, mutation_seed] = *this;
    return std::tie(behaviors, mutation_seed);
  }
};

// Derives authority `id`'s faulty materials from its honest ones. Pure and
// deterministic: same inputs, same bytes, on every thread.
AuthorityMaterials MakeFaultyMaterials(const AuthorityMaterials& honest,
                                       ByzantineBehavior behavior, const ByzantineSpec& spec,
                                       torbase::NodeId id);

// Decorator: delegates everything to `inner`, but MakeAuthority substitutes
// faulty materials for the authorities named in `spec`. Both pointers must
// outlive the wrapper (the scenario runner keeps them on the stack for the
// duration of one run).
class ByzantineProtocol : public DirectoryProtocol {
 public:
  ByzantineProtocol(const DirectoryProtocol* inner, const ByzantineSpec* spec)
      : inner_(inner), spec_(spec) {}

  std::string_view name() const override { return inner_->name(); }
  std::string_view display_name() const override { return inner_->display_name(); }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId id,
                                               AuthorityMaterials materials) const override;

  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    return inner_->ProbeOutcome(actor);
  }
  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    return inner_->ProbeConsensus(actor);
  }
  AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const override {
    return inner_->SnapshotAuthority(actor);
  }
  std::vector<torbase::NodeId> ProbeVoteSenders(const torsim::Actor& actor) const override {
    return inner_->ProbeVoteSenders(actor);
  }
  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    return inner_->ProbeVoteObservations(actor);
  }
  std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return inner_->ProbeVoteRejects(actor);
  }
  std::optional<std::pair<uint64_t, torbase::NodeId>> AgreementView(
      const torsim::Actor& actor) const override {
    return inner_->AgreementView(actor);
  }

 private:
  const DirectoryProtocol* inner_;
  const ByzantineSpec* spec_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_BYZANTINE_H_
