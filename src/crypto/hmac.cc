#include "src/crypto/hmac.h"

#include <cstring>

namespace torcrypto {
namespace {

// The key's ipad and opad blocks: the key (hashed first when longer than a
// block) zero-padded to one block, XORed with 0x36 and 0x5c.
void PadBlocks(std::span<const uint8_t> key, uint8_t (&ipad)[kSha256BlockSize],
               uint8_t (&opad)[kSha256BlockSize]) {
  uint8_t block_key[kSha256BlockSize];
  std::memset(block_key, 0, sizeof(block_key));
  if (key.size() > kSha256BlockSize) {
    const auto hashed = Sha256Digest(key);
    std::memcpy(block_key, hashed.data(), hashed.size());
  } else {
    std::memcpy(block_key, key.data(), key.size());
  }
  for (size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }
}

}  // namespace

std::array<uint8_t, kSha256DigestSize> HmacSha256(std::span<const uint8_t> key,
                                                  std::span<const uint8_t> message) {
  uint8_t ipad[kSha256BlockSize];
  uint8_t opad[kSha256BlockSize];
  PadBlocks(key, ipad, opad);

  Sha256 inner;
  inner.Update(std::span<const uint8_t>(ipad, sizeof(ipad)));
  inner.Update(message);
  const auto inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(std::span<const uint8_t>(opad, sizeof(opad)));
  outer.Update(std::span<const uint8_t>(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

HmacSha256Key::HmacSha256Key(std::span<const uint8_t> key) {
  uint8_t ipad[kSha256BlockSize];
  uint8_t opad[kSha256BlockSize];
  PadBlocks(key, ipad, opad);
  inner_.Update(std::span<const uint8_t>(ipad, sizeof(ipad)));
  outer_.Update(std::span<const uint8_t>(opad, sizeof(opad)));
}

std::array<uint8_t, kSha256DigestSize> HmacSha256Key::Finish(Sha256& inner) const {
  const auto inner_digest = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(std::span<const uint8_t>(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

}  // namespace torcrypto
