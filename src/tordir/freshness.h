// Consensus freshness rules (paper §2/§3.1): a consensus document is fresh
// for 1 hour, then stale (clients should avoid it) but usable, and invalid 3
// hours after generation. Because authorities attempt one consensus per hour,
// three consecutive failed runs leave clients with no valid consensus — the
// whole network halts, which is what makes the 5-minute-per-hour DDoS
// catastrophic. The client plane (src/clients/population.h) applies these
// rules to a published-document timeline; RunTimeline reports the outage.
#ifndef SRC_TORDIR_FRESHNESS_H_
#define SRC_TORDIR_FRESHNESS_H_

#include <cstdint>

#include "src/crypto/signature.h"
#include "src/tordir/vote.h"

namespace tordir {

enum class ConsensusFreshness {
  kFresh,    // now < fresh_until
  kStale,    // fresh_until <= now < valid_until: discouraged but usable
  kInvalid,  // now >= valid_until: must not be used
};

const char* FreshnessName(ConsensusFreshness freshness);

ConsensusFreshness EvaluateFreshness(const ConsensusDocument& consensus, uint64_t now_unix);

// Full client-side validation: signature lines must verify over the unsigned
// body digest, come from distinct known authorities, and reach the majority
// threshold (floor(n/2)+1 of `authority_count`).
bool ValidateConsensusSignatures(const ConsensusDocument& consensus,
                                 const torcrypto::KeyDirectory& directory,
                                 uint32_t authority_count);

}  // namespace tordir

#endif  // SRC_TORDIR_FRESHNESS_H_
