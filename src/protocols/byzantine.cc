#include "src/protocols/byzantine.h"

#include <limits>
#include <string>
#include <utility>

#include "src/tordir/dirspec.h"
#include "src/tordir/wire_mutator.h"

namespace torproto {
namespace {

// kInflateBandwidth's multiplier: TorMult's inflation factor.
constexpr double kBandwidthMultiplier = 64.0;

// Saturating bandwidth scaling; inflated weights must not wrap back down.
uint64_t Inflate(uint64_t value, double multiplier) {
  const double scaled = static_cast<double>(value) * multiplier;
  if (scaled >= static_cast<double>(std::numeric_limits<uint64_t>::max())) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(scaled);
}

std::string HonestText(const AuthorityMaterials& honest) {
  if (honest.vote_text != nullptr) {
    return *honest.vote_text;
  }
  return tordir::SerializeVote(*honest.vote);
}

// The honest materials with `document` (and its bytes) as the authority's
// vote; everything else — the vote cache, the restore seam, the cell's
// document store — carries over.
AuthorityMaterials WithDocument(const AuthorityMaterials& honest, tordir::VoteDocument document) {
  AuthorityMaterials faulty = honest;
  faulty.vote_text = std::make_shared<const std::string>(tordir::SerializeVote(document));
  faulty.vote = std::make_shared<const tordir::VoteDocument>(std::move(document));
  return faulty;
}

}  // namespace

const char* ByzantineBehaviorName(ByzantineBehavior behavior) {
  switch (behavior) {
    case ByzantineBehavior::kEquivocate:
      return "equivocate";
    case ByzantineBehavior::kReplay:
      return "replay";
    case ByzantineBehavior::kMalformedWire:
      return "malformed-wire";
    case ByzantineBehavior::kInflateBandwidth:
      return "inflate-bandwidth";
  }
  return "?";
}

AuthorityMaterials MakeFaultyMaterials(const AuthorityMaterials& honest,
                                       ByzantineBehavior behavior, const ByzantineSpec& spec,
                                       torbase::NodeId id) {
  switch (behavior) {
    case ByzantineBehavior::kEquivocate: {
      // Variant B nudges fresh_until by one second: a second canonical,
      // admissible document with a distinct digest. Aggregation windows are
      // medians over all votes, so one shifted vote leaves the consensus
      // byte-identical — the attack is only visible as a per-peer digest
      // mismatch, which is exactly what the health monitor cross-checks.
      tordir::VoteDocument variant = *honest.vote;
      variant.fresh_until += 1;
      AuthorityMaterials faulty = honest;
      faulty.second_vote_text =
          std::make_shared<const std::string>(tordir::SerializeVote(variant));
      return faulty;
    }
    case ByzantineBehavior::kReplay: {
      // Shift the whole validity window back one full period: the document is
      // canonical and correctly signed-over, but its valid_until equals the
      // receivers' period start — a replayed vote from the previous period.
      tordir::VoteDocument stale = *honest.vote;
      const uint64_t period = stale.valid_until - stale.valid_after;
      stale.valid_after -= period;
      stale.fresh_until -= period;
      stale.valid_until -= period;
      return WithDocument(honest, std::move(stale));
    }
    case ByzantineBehavior::kMalformedWire: {
      // Structurally mutated canonical bytes (never admissible), seeded per
      // authority so concurrent malformed authorities diverge.
      AuthorityMaterials faulty = honest;
      const uint64_t seed = spec.mutation_seed ^ ((id + 1) * 0x9e3779b97f4a7c15ULL);
      faulty.vote_text = std::make_shared<const std::string>(
          tordir::MutateWireStructural(HonestText(honest), seed));
      return faulty;
    }
    case ByzantineBehavior::kInflateBandwidth: {
      tordir::VoteDocument inflated = *honest.vote;
      for (tordir::RelayStatus& relay : inflated.relays) {
        relay.bandwidth = Inflate(relay.bandwidth, kBandwidthMultiplier);
        if (relay.measured.has_value()) {
          relay.measured = Inflate(*relay.measured, kBandwidthMultiplier);
        }
      }
      return WithDocument(honest, std::move(inflated));
    }
  }
  return honest;
}

std::unique_ptr<torsim::Actor> ByzantineProtocol::MakeAuthority(
    const ProtocolRunConfig& config, const torcrypto::KeyDirectory* directory,
    torbase::NodeId id, AuthorityMaterials materials) const {
  if (auto it = spec_->behaviors.find(id); it != spec_->behaviors.end()) {
    materials = MakeFaultyMaterials(materials, it->second, *spec_, id);
  }
  return inner_->MakeAuthority(config, directory, id, std::move(materials));
}

}  // namespace torproto
