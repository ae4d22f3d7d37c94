// The certified digest vector (H, π) of the dissemination sub-protocol
// (paper §5.2.1, Figure 9).
//
// Each node i signs EntryPayload(j, h) statements: "I received node j's
// document with digest h" (or h = ⟂ for "I received nothing from j"). A
// PROPOSAL bundles node i's statements for all j. The view leader aggregates
// (n - f) proposals into a vector H with one externally verifiable proof per
// entry:
//   * OK(h):        the sender's own signature on (j, h) plus (f + 1) distinct
//                   proposer signatures on (j, h). At least one correct node
//                   holds the document, so it can be retrieved later.
//   * Equivocation: two signatures by sender j itself over different digests.
//                   Entry forced to ⟂.
//   * Timeout:      (f + 1) distinct proposer signatures on (j, ⟂). At least
//                   one correct node timed out on j, so when GST = 0 an
//                   adversarial leader cannot exclude a correct sender.
// A vector is *ready* once it has at least (n - f) non-⟂ entries; readiness is
// part of external validity in the agreement sub-protocol.
#ifndef SRC_PROTOCOLS_ICPS_DIGEST_VECTOR_H_
#define SRC_PROTOCOLS_ICPS_DIGEST_VECTOR_H_

#include <map>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ids.h"
#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"

namespace toricc {

using torbase::Bytes;
using torbase::NodeId;

// The byte string behind every dissemination signature: "node j's document has
// digest h" (h absent = ⟂).
Bytes EntryPayload(NodeId j, const std::optional<torcrypto::Digest256>& digest);

// One node's PROPOSAL row about sender j.
struct ProposalEntry {
  std::optional<torcrypto::Digest256> digest;       // nullopt = ⟂
  std::optional<torcrypto::Signature> sender_sig;   // sigma_j(j, h); present iff digest
  torcrypto::Signature proposer_sig;                // sigma_i(j, h or ⟂)
};

// A full PROPOSAL from `proposer`: one entry per sender, n total.
struct Proposal {
  NodeId proposer = torbase::kNoNode;
  std::vector<ProposalEntry> entries;

  void Encode(torbase::Writer& w) const;
  static torbase::Result<Proposal> Decode(torbase::Reader& r);

  // Checks internal consistency: every proposer signature verifies and is by
  // `proposer`, and sender signatures verify for non-empty entries.
  bool Verify(const torcrypto::KeyDirectory& directory, uint32_t node_count) const;
};

// One certified entry of the agreed vector.
struct VectorEntry {
  enum class Kind : uint8_t { kOk = 1, kEquivocation = 2, kTimeout = 3 };
  Kind kind = Kind::kTimeout;

  // kOk only:
  std::optional<torcrypto::Digest256> digest;
  std::optional<torcrypto::Signature> sender_sig;
  std::vector<torcrypto::Signature> witness_sigs;  // (f + 1) distinct proposers

  // kEquivocation only: two conflicting sender-signed digests.
  std::optional<torcrypto::Digest256> equivocation_a;
  std::optional<torcrypto::Digest256> equivocation_b;
  std::optional<torcrypto::Signature> equivocation_sig_a;
  std::optional<torcrypto::Signature> equivocation_sig_b;

  bool NonEmpty() const { return kind == Kind::kOk; }
};

// The agreement value: a digest vector with per-entry proofs.
struct CertifiedVector {
  std::vector<VectorEntry> entries;  // size n

  size_t NonEmptyCount() const;

  Bytes Encode() const;
  static torbase::Result<CertifiedVector> Decode(const Bytes& bytes);

  // External validity (agreement input check): proofs verify for every entry
  // and at least (n - f) entries are non-empty.
  bool Verify(const torcrypto::KeyDirectory& directory, uint32_t node_count,
              uint32_t fault_tolerance) const;
};

// Leader-side aggregation of proposals into a certified vector (§5.2.1 step 2).
// Returns nullopt while the proposals cannot justify a *ready* vector yet
// (fewer than n - f proposals, or not enough non-⟂ entries provable).
std::optional<CertifiedVector> BuildCertifiedVector(
    const std::map<NodeId, Proposal>& proposals, uint32_t node_count, uint32_t fault_tolerance);

}  // namespace toricc

#endif  // SRC_PROTOCOLS_ICPS_DIGEST_VECTOR_H_
