// Multi-message SHA-256: digests N independent messages in one call, feeding
// lock-step SIMD lanes where the CPU supports it. Produces exactly the same
// digests as hashing each message with Sha256 — batching is a throughput
// optimization, never a format change — so callers (workload build, relay
// identity derivation) can switch between the two freely.
#ifndef SRC_CRYPTO_SHA256_BATCH_H_
#define SRC_CRYPTO_SHA256_BATCH_H_

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "src/crypto/sha256.h"

namespace torcrypto {

// Collects message views, then digests them all at once. Views are
// non-owning: every added message must stay alive and unchanged until
// Finish() returns.
class Sha256Batch {
 public:
  // Uses ActiveSha256BatchBackend() — the fastest multi-message strategy the
  // CPU supports.
  Sha256Batch();
  // Pins the batch to one core (must satisfy Sha256BackendSupported()); used
  // by tests to cross-check the AVX2 lanes against scalar and by perf_report
  // to measure each backend.
  explicit Sha256Batch(Sha256Backend backend);

  void Add(std::span<const uint8_t> message) { messages_.push_back(message); }
  void Add(std::string_view message) { Add(AsByteSpan(message)); }

  size_t size() const { return messages_.size(); }
  Sha256Backend backend() const { return backend_; }

  // Digests every added message, in Add() order, and clears the batch for
  // reuse. Digest i is byte-identical to Sha256Digest(message i).
  std::vector<std::array<uint8_t, kSha256DigestSize>> Finish();

 private:
  Sha256Backend backend_;
  std::vector<std::span<const uint8_t>> messages_;
};

}  // namespace torcrypto

#endif  // SRC_CRYPTO_SHA256_BATCH_H_
