#include "src/scenario/spec_digest.h"

#include <memory>
#include <tuple>

#include "src/common/fields.h"
#include "src/tordir/dirspec.h"

namespace torscenario {
namespace {

// Bump when the description layout changes; stale memo entries must never be
// mistaken for current ones across versions of this code.
constexpr std::string_view kDomain = "scenario-spec-digest-v3";

// The diff baseline enters as the framing digest of its exact signed bytes
// (what the diff codec pins base documents with): byte-different baselines
// produce different diff sizes, so they must produce different spec digests.
// Hashed per call — callers running many cells against one baseline pay a
// streaming hash of the document, not a serialization.
void DescribeField(torbase::Writer& writer,
                   const std::shared_ptr<const tordir::ConsensusDocument>& baseline) {
  writer.WriteBool(baseline != nullptr);
  if (baseline != nullptr) {
    writer.WriteRaw(tordir::TreeSignedConsensusDigest(*baseline).span());
  }
}

template <typename T>
void DescribeField(torbase::Writer& writer, const T& field) {
  torbase::Describe(writer, field);
}

}  // namespace

torcrypto::Digest256 SpecDigest(const ScenarioSpec& spec) {
  torbase::Writer writer;
  writer.WriteString(kDomain);
  std::apply([&writer](const auto&... field) { (DescribeField(writer, field), ...); },
             spec.Fields());
  return torcrypto::Digest256::Of(writer.buffer());
}

}  // namespace torscenario
