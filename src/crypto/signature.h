// Simulated digital signatures.
//
// The directory protocols only require that (a) a signature over a message can
// be produced solely by its author, (b) anyone can verify it, and (c) it has a
// fixed wire size kappa. Real Tor uses RSA/Ed25519; inside a closed simulation we
// get the same abstract guarantees from HMAC-SHA256 under per-node secrets held
// in a KeyDirectory (the stand-in for the PKI). A signature is 64 bytes — the
// same kappa as Ed25519-style schemes — so the communication-complexity numbers
// in Table 1 / Appendix B carry over unchanged. This substitution is recorded
// under "Modelling substitutions" in EXPERIMENTS.md.
#ifndef SRC_CRYPTO_SIGNATURE_H_
#define SRC_CRYPTO_SIGNATURE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ids.h"
#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/crypto/digest.h"
#include "src/crypto/hmac.h"

namespace torcrypto {

// 64-byte signature value plus the claimed signer. kappa for complexity
// accounting is the wire size below.
struct Signature {
  torbase::NodeId signer = torbase::kNoNode;
  std::array<uint8_t, 64> bytes{};

  bool operator==(const Signature& other) const = default;

  std::string ToHex() const;
};

// Wire size of a serialized signature: 4-byte signer id + 64-byte value.
constexpr size_t kSignatureWireSize = 4 + 64;

// The wire codec every protocol message shares: a digest is its 32 raw bytes
// (written with WriteRaw(digest.span())); a signature is a u32 signer
// followed by its 64 raw bytes.
torbase::Result<Digest256> ReadDigest(torbase::Reader& r);
void WriteSignature(torbase::Writer& w, const Signature& sig);
torbase::Result<Signature> ReadSignature(torbase::Reader& r);

class KeyDirectory;

// Per-node signing handle. Obtained from the KeyDirectory; a copy holds the
// node's key with its pad blocks absorbed (a few hundred bytes).
class Signer {
 public:
  Signer() = default;

  torbase::NodeId id() const { return id_; }

  Signature Sign(std::span<const uint8_t> message) const;
  Signature Sign(const std::string& message) const;

 private:
  friend class KeyDirectory;
  Signer(torbase::NodeId id, const HmacSha256Key& key) : id_(id), key_(key) {}

  torbase::NodeId id_ = torbase::kNoNode;
  HmacSha256Key key_;
};

// The trusted registry of authority keys (the simulation's PKI). Derives each
// node's secret from a seed and keeps it as an HmacSha256Key; verification
// recomputes the MAC under the stored key.
class KeyDirectory {
 public:
  KeyDirectory(uint64_t seed, uint32_t node_count);

  uint32_t node_count() const { return static_cast<uint32_t>(keys_.size()); }

  // Fetches the signing handle for a node. `id` must be < node_count().
  Signer SignerFor(torbase::NodeId id) const;

  // True iff `sig` is a valid signature by `sig.signer` over `message`.
  bool Verify(std::span<const uint8_t> message, const Signature& sig) const;
  bool Verify(const std::string& message, const Signature& sig) const;

 private:
  std::vector<HmacSha256Key> keys_;
};

}  // namespace torcrypto

#endif  // SRC_CRYPTO_SIGNATURE_H_
