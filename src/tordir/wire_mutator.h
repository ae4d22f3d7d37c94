// Seeded, deterministic mutations of dir-spec wire bytes.
//
// Two tiers:
//
//   * MutateWire — a general corpus mutator (byte flips, line splices, word
//     swaps, truncation...) used by tests/codec_fuzz_test.cc to probe the
//     ParseVote/ParseConsensus accept set. Mutants may or may not still
//     parse; the test asserts that anything accepted is the writer's own
//     output (it re-serializes to the mutant byte for byte).
//
//   * MutateWireStructural — a restricted mutator whose every output is
//     guaranteed to be refused by the admission layer: no output is the
//     canonical encoding of any vote, so ParseVote refuses it. This is what
//     the kMalformedWire byzantine behavior feeds onto the simulated wire: the
//     bytes look plausible enough to exercise parsers, but an honest
//     authority must never aggregate them.
//
// Both are pure functions of (text, seed): the same inputs produce the same
// mutant on every platform, which is what keeps byzantine scenario cells
// bit-identical between serial and parallel sweeps.
#ifndef SRC_TORDIR_WIRE_MUTATOR_H_
#define SRC_TORDIR_WIRE_MUTATOR_H_

#include <cstdint>
#include <string>

namespace tordir {

// Applies 1-3 seeded mutations drawn from the full corpus set. Always returns
// bytes different from `text` (for non-degenerate inputs of >= 2 lines).
std::string MutateWire(const std::string& text, uint64_t seed);

// Applies one seeded mutation from the restricted set (garbage line, line
// duplication, truncation, keyword corruption). No output is the canonical
// encoding of a vote, so AdmitVote always rejects it as malformed.
std::string MutateWireStructural(const std::string& text, uint64_t seed);

}  // namespace tordir

#endif  // SRC_TORDIR_WIRE_MUTATOR_H_
