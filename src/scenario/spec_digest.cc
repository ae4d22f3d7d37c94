#include "src/scenario/spec_digest.h"

#include "src/common/serialize.h"
#include "src/tordir/dirspec.h"

namespace torscenario {
namespace {

// Bump when the description layout changes; stale memo entries must never be
// mistaken for current ones across versions of this code.
constexpr std::string_view kDomain = "scenario-spec-digest-v2";

// Field tags make the description self-framing: a field that moves, vanishes
// or changes width can never alias another field's bytes. Tag values are
// frozen — append new fields with new tags, never renumber.
enum class Tag : uint8_t {
  kProtocol = 1,
  kAuthorityCount = 2,
  kRelayCount = 3,
  kSeed = 4,
  kBandwidth = 5,
  kBandwidthByAuthority = 6,
  kLatency = 7,
  kAttack = 8,
  kChurn = 9,
  kHorizon = 10,
  kDisseminationTimeout = 11,
  kTwoPhaseAgreement = 12,
  kClientLoad = 13,
  kMonitorHealth = 14,
  kPreviousConsensus = 15,
  kByzantine = 16,
  kRetainConsensus = 17,
};

void WriteTag(torbase::Writer& writer, Tag tag) {
  writer.WriteU8(static_cast<uint8_t>(tag));
}

void DescribeClientLoad(const torclients::ClientLoadSpec& load, torbase::Writer& writer) {
  writer.WriteU64(load.client_count);
  writer.WriteF64(load.bootstrap_fraction);
  writer.WriteU32(load.cache_count);
  writer.WriteF64(load.cache_bandwidth_bps);
  writer.WriteU64(load.vote_lead);
  writer.WriteU64(load.evaluation_window);
  writer.WriteF64(load.consensus_size_hint_bytes);
  writer.WriteF64(load.diff_capable_fraction);
}

}  // namespace

torcrypto::Digest256 SpecDigest(const ScenarioSpec& spec) {
  torbase::Writer writer;
  writer.WriteString(kDomain);

  // spec.name is intentionally not written: a display label, never simulated
  // (see header). Everything else is, in declaration order.
  WriteTag(writer, Tag::kProtocol);
  writer.WriteString(spec.protocol);
  WriteTag(writer, Tag::kAuthorityCount);
  writer.WriteU32(spec.authority_count);
  WriteTag(writer, Tag::kRelayCount);
  writer.WriteU64(spec.relay_count);
  WriteTag(writer, Tag::kSeed);
  writer.WriteU64(spec.seed);
  WriteTag(writer, Tag::kBandwidth);
  writer.WriteF64(spec.bandwidth_bps);
  WriteTag(writer, Tag::kBandwidthByAuthority);
  writer.WriteU32(static_cast<uint32_t>(spec.bandwidth_by_authority.size()));
  for (const auto& [node, bps] : spec.bandwidth_by_authority) {
    writer.WriteU32(node);
    writer.WriteF64(bps);
  }
  WriteTag(writer, Tag::kLatency);
  writer.WriteU64(spec.latency);

  WriteTag(writer, Tag::kAttack);
  writer.WriteBool(spec.attack != nullptr);
  if (spec.attack != nullptr) {
    spec.attack->Describe(writer);
  }

  WriteTag(writer, Tag::kChurn);
  writer.WriteU32(static_cast<uint32_t>(spec.churn.size()));
  for (const ChurnEvent& event : spec.churn) {
    writer.WriteU32(event.node);
    writer.WriteU64(event.at);
    writer.WriteU8(static_cast<uint8_t>(event.kind));
  }

  WriteTag(writer, Tag::kHorizon);
  writer.WriteU64(spec.horizon);
  WriteTag(writer, Tag::kDisseminationTimeout);
  writer.WriteU64(spec.dissemination_timeout);
  WriteTag(writer, Tag::kTwoPhaseAgreement);
  writer.WriteBool(spec.two_phase_agreement);

  WriteTag(writer, Tag::kClientLoad);
  DescribeClientLoad(spec.client_load, writer);

  WriteTag(writer, Tag::kMonitorHealth);
  writer.WriteBool(spec.monitor_health);

  // The diff baseline enters as the framing digest of its exact signed bytes
  // (what the diff codec pins base documents with): byte-different baselines
  // produce different diff sizes, so they must produce different spec
  // digests. Hashed per call — callers running many cells against one
  // baseline pay a streaming hash of the document, not a serialization.
  WriteTag(writer, Tag::kPreviousConsensus);
  writer.WriteBool(spec.previous_consensus != nullptr);
  if (spec.previous_consensus != nullptr) {
    writer.WriteRaw(tordir::TreeSignedConsensusDigest(*spec.previous_consensus).span());
  }

  WriteTag(writer, Tag::kByzantine);
  spec.byzantine.Describe(writer);

  WriteTag(writer, Tag::kRetainConsensus);
  writer.WriteBool(spec.retain_consensus);

  return torcrypto::Digest256::Of(writer.buffer());
}

}  // namespace torscenario
