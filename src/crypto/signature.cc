#include "src/crypto/signature.h"

#include <algorithm>
#include <cassert>

namespace torcrypto {
namespace {

// The 64-byte signature value: HMAC-SHA256 of 0x01 || message, then of
// 0x02 || message, both under `key`.
std::array<uint8_t, 64> MacHalves(const HmacSha256Key& key, std::span<const uint8_t> message) {
  std::array<uint8_t, 64> out;
  for (size_t half = 0; half < 2; ++half) {
    const uint8_t tag = static_cast<uint8_t>(half + 1);
    Sha256 inner = key.Inner();
    inner.Update(std::span<const uint8_t>(&tag, 1));
    inner.Update(message);
    const auto mac = key.Finish(inner);
    std::copy(mac.begin(), mac.end(), out.begin() + 32 * half);
  }
  return out;
}

}  // namespace

std::string Signature::ToHex() const { return torbase::HexEncode(bytes); }

torbase::Result<Digest256> ReadDigest(torbase::Reader& r) {
  auto raw = r.ReadRaw(kSha256DigestSize);
  if (!raw.ok()) {
    return raw.status();
  }
  std::array<uint8_t, kSha256DigestSize> bytes;
  std::copy(raw->begin(), raw->end(), bytes.begin());
  return Digest256(bytes);
}

void WriteSignature(torbase::Writer& w, const Signature& sig) {
  w.WriteU32(sig.signer);
  w.WriteRaw(sig.bytes);
}

torbase::Result<Signature> ReadSignature(torbase::Reader& r) {
  auto signer = r.ReadU32();
  auto raw = r.ReadRaw(64);
  if (!signer.ok() || !raw.ok()) {
    return torbase::Status::InvalidArgument("truncated signature");
  }
  Signature sig;
  sig.signer = *signer;
  std::copy(raw->begin(), raw->end(), sig.bytes.begin());
  return sig;
}

Signature Signer::Sign(std::span<const uint8_t> message) const {
  assert(id_ != torbase::kNoNode && "Sign() on a default-constructed Signer");
  Signature sig;
  sig.signer = id_;
  sig.bytes = MacHalves(key_, message);
  return sig;
}

Signature Signer::Sign(const std::string& message) const {
  return Sign(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                       message.size()));
}

KeyDirectory::KeyDirectory(uint64_t seed, uint32_t node_count) {
  keys_.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    torbase::Writer w;
    w.WriteU64(seed);
    w.WriteU32(i);
    w.WriteString("partialtor-key-derivation");
    keys_.emplace_back(Sha256Digest(w.buffer()));
  }
}

Signer KeyDirectory::SignerFor(torbase::NodeId id) const {
  assert(id < keys_.size());
  return Signer(id, keys_[id]);
}

bool KeyDirectory::Verify(std::span<const uint8_t> message, const Signature& sig) const {
  if (sig.signer >= keys_.size()) {
    return false;
  }
  return torbase::ConstantTimeEqual(MacHalves(keys_[sig.signer], message), sig.bytes);
}

bool KeyDirectory::Verify(const std::string& message, const Signature& sig) const {
  return Verify(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                         message.size()),
                sig);
}

}  // namespace torcrypto
