// The consensus aggregation algorithm (Figure 2 of the paper / dir-spec §3.8):
// given the set of votes an authority holds, deterministically compute the
// consensus relay list. Every protocol in this repository — Current,
// Synchronous and the ICPS protocol — funnels its agreed vote set through this
// single implementation, mirroring how all real implementations share Tor's
// aggregation code.
//
// Rules implemented (Fig. 2):
//   * A relay is included iff a majority of the votes aggregated list it
//     (strictly more than half of them).
//   * Its nickname is taken from the listing vote with the largest authority ID.
//   * Each flag is set by popular vote among listing votes; ties mean unset.
//   * Version / protocols: popular vote, ties broken towards the largest value
//     (CompareVersions order).
//   * Exit policy: popular vote, ties broken towards the lexicographically
//     larger summary.
//   * Bandwidth: median of the Measured values from votes that measured the
//     relay; if no vote measured it, median of the claimed bandwidths.
//   * Address/ports/published/microdesc digest: popular vote over the full
//     endpoint tuple, ties broken towards the largest authority ID.
//
// Implementation: a k-way merge over the votes' fingerprint-sorted relay
// lists with fixed-size counting scratch reused across relays — O(n·a) time,
// no per-relay map nodes, and (thanks to interned relay strings) no per-relay
// heap allocations. The allocation bound is pinned by
// tests/aggregate_alloc_test.cc and the golden digests in
// tests/consensus_golden_test.cc prove the output is byte-identical to the
// original map-based implementation.
#ifndef SRC_TORDIR_AGGREGATE_H_
#define SRC_TORDIR_AGGREGATE_H_

#include <vector>

#include "src/tordir/vote.h"

namespace tordir {

// Aggregates `votes` into a consensus document. Votes must come from distinct
// authorities; the result is independent of input order (tested). The
// consensus is unsigned; callers collect signatures separately.
ConsensusDocument ComputeConsensus(const std::vector<const VoteDocument*>& votes);

// Convenience overload for owned votes.
ConsensusDocument ComputeConsensus(const std::vector<VoteDocument>& votes);

}  // namespace tordir

#endif  // SRC_TORDIR_AGGREGATE_H_
