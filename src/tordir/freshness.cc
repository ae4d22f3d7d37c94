#include "src/tordir/freshness.h"

#include <set>

#include "src/tordir/dirspec.h"

namespace tordir {

const char* FreshnessName(ConsensusFreshness freshness) {
  switch (freshness) {
    case ConsensusFreshness::kFresh:
      return "fresh";
    case ConsensusFreshness::kStale:
      return "stale";
    case ConsensusFreshness::kInvalid:
      return "invalid";
  }
  return "?";
}

ConsensusFreshness EvaluateFreshness(const ConsensusDocument& consensus, uint64_t now_unix) {
  if (now_unix < consensus.fresh_until) {
    return ConsensusFreshness::kFresh;
  }
  if (now_unix < consensus.valid_until) {
    return ConsensusFreshness::kStale;
  }
  return ConsensusFreshness::kInvalid;
}

bool ValidateConsensusSignatures(const ConsensusDocument& consensus,
                                 const torcrypto::KeyDirectory& directory,
                                 uint32_t authority_count) {
  const auto digest = ConsensusDigest(consensus);
  std::set<torbase::NodeId> signers;
  for (const auto& sig : consensus.signatures) {
    if (sig.signer >= authority_count) {
      return false;  // unknown authority: reject the document outright
    }
    if (!directory.Verify(digest.span(), sig)) {
      return false;  // any bad signature taints the document
    }
    signers.insert(sig.signer);
  }
  return signers.size() >= authority_count / 2 + 1;
}

}  // namespace tordir
