// HMAC-SHA256 (RFC 2104). Underlies the simulated signature scheme.
// HmacSha256 is the one-shot reference, tested against the RFC 4231 vectors;
// HmacSha256Key absorbs a key's pad blocks once, for signers that MAC many
// messages under one key.
#ifndef SRC_CRYPTO_HMAC_H_
#define SRC_CRYPTO_HMAC_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/crypto/sha256.h"

namespace torcrypto {

std::array<uint8_t, kSha256DigestSize> HmacSha256(std::span<const uint8_t> key,
                                                  std::span<const uint8_t> message);

// A key with its ipad and opad blocks already absorbed: a MAC copies the two
// contexts instead of hashing the pads again. The MAC of a message absorbed
// into Inner() is HmacSha256's over the same bytes, byte for byte.
class HmacSha256Key {
 public:
  HmacSha256Key() = default;
  explicit HmacSha256Key(std::span<const uint8_t> key);

  // A context past the ipad block: Update it with the message.
  Sha256 Inner() const { return inner_; }
  // The MAC of what `inner`, from Inner(), absorbed.
  std::array<uint8_t, kSha256DigestSize> Finish(Sha256& inner) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

}  // namespace torcrypto

#endif  // SRC_CRYPTO_HMAC_H_
