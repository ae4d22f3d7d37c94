// Shared vocabulary for the three directory-protocol implementations: the
// protocol constants, per-authority outcomes and admission evidence.
#ifndef SRC_PROTOCOLS_COMMON_H_
#define SRC_PROTOCOLS_COMMON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/tordir/admission.h"
#include "src/tordir/vote.h"

namespace torproto {

using torbase::Duration;
using torbase::NodeId;
using torbase::TimePoint;

// Lock-step round length of the deployed protocol (§3.1: 150 s per round).
constexpr Duration kRoundLength = torbase::Seconds(150);

// Per-directory-request completion deadline: a vote POST or fetch response
// that has not fully arrived this long after it was initiated is abandoned,
// matching the "Giving up downloading votes" behaviour in Figure 1. The
// calibration of this constant against the paper's crossovers is documented
// in EXPERIMENTS.md.
constexpr Duration kDirRequestDeadline = torbase::Seconds(28);

// Votes needed to compute a consensus, and matching signatures needed for it
// to be valid: a majority of all n authorities (5 of 9).
constexpr uint32_t MajorityOf(uint32_t n) { return n / 2 + 1; }

// The consensus phase every protocol ends with (AuthorityCore): the document
// this authority computed and whether a majority signed it.
struct ConsensusOutcome {
  bool computed_consensus = false;       // aggregated an agreed vote set
  bool valid_consensus = false;          // published with >= majority signatures
  // Non-null iff computed_consensus: the unsigned body from the document
  // store until Publish, then the store's signed document (the body plus
  // this authority's counted signatures in signer order). Shared with every
  // holder of the same body and signature list, and never mutated.
  std::shared_ptr<const tordir::ConsensusDocument> consensus;
  // When a majority of matching signatures was first held (the §6.2
  // network-time probe); torbase::kTimeNever if never.
  TimePoint finished_at = torbase::kTimeNever;
};

// What one authority of the deployed protocol experienced during a run.
struct AuthorityOutcome : ConsensusOutcome {
  uint32_t votes_held = 0;               // votes available at compute time
  uint32_t signatures_held = 0;          // matching signatures at finish

  // Network-time probe (paper §6.2): when the last vote arrived,
  // torbase::kTimeNever if some never did.
  TimePoint all_votes_received_at = torbase::kTimeNever;
};

// The durable state one authority carries across a round boundary of a
// multi-round timeline (src/scenario/timeline.h): the consensus it ended the
// round holding, as a parsed document plus its canonical serialization.
// Immutable once built — rounds running on different pool threads may share
// one snapshot, which is what keeps the timeline engine inside the sweep
// threading contract. Produced by DirectoryProtocol::SnapshotAuthority;
// restored into the next round via AuthorityMaterials::round_state.
struct AuthorityRoundState {
  std::shared_ptr<const tordir::ConsensusDocument> consensus;
  std::shared_ptr<const std::string> consensus_text;
  // True when this state was injected via restore (a rejoining authority
  // serving a fetched document) rather than assembled in-protocol this round.
  bool restored = false;
};

// One vote another authority's actor *admitted* during the run: who sent it,
// the digest of its canonical bytes, when it first arrived, and the parsed
// document (shared, immutable — for evidence like bandwidth totals computed
// lazily at probe time). Authorities record these for the health monitor;
// their own vote is excluded.
struct ObservedVote {
  NodeId sender = torbase::kNoNode;
  torcrypto::Digest256 digest;
  TimePoint at = torbase::kTimeNever;
  std::shared_ptr<const tordir::VoteDocument> document;
};

// One vote text an authority refused at admission (src/tordir/admission.h),
// attributed to `sender` when attribution is sound: the direct wire sender
// for malformed bytes, the document's own author for stale windows.
struct RejectedVote {
  NodeId sender = torbase::kNoNode;
  tordir::VoteRejectReason reason = tordir::VoteRejectReason::kMalformed;
  TimePoint at = torbase::kTimeNever;
};

// Renders "100.0.0.<id+1>:8080", the Shadow-style authority addresses used in
// Figure 1's log lines.
inline std::string AuthorityAddress(NodeId id) {
  return "100.0.0." + std::to_string(id + 1) + ":8080";
}

}  // namespace torproto

#endif  // SRC_PROTOCOLS_COMMON_H_
