#include "src/crypto/signature.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/hmac.h"

namespace torcrypto {
namespace {

// Derives the two 32-byte halves of a signature with distinct domain tags so
// the signature value is 64 bytes.
std::array<uint8_t, 64> MacHalves(const std::array<uint8_t, 32>& secret,
                                  std::span<const uint8_t> message) {
  torbase::Writer tagged;
  tagged.WriteU8(0x01);
  tagged.WriteRaw(message);
  const auto lo = HmacSha256(secret, tagged.buffer());

  torbase::Writer tagged2;
  tagged2.WriteU8(0x02);
  tagged2.WriteRaw(message);
  const auto hi = HmacSha256(secret, tagged2.buffer());

  std::array<uint8_t, 64> out;
  std::copy(lo.begin(), lo.end(), out.begin());
  std::copy(hi.begin(), hi.end(), out.begin() + 32);
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
  sig.bytes = MacHalves(secret_, message);
  return sig;
}

Signature Signer::Sign(const std::string& message) const {
  return Sign(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                       message.size()));
}

KeyDirectory::KeyDirectory(uint64_t seed, uint32_t node_count) {
  secrets_.resize(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    torbase::Writer w;
    w.WriteU64(seed);
    w.WriteU32(i);
    w.WriteString("partialtor-key-derivation");
    const auto digest = Sha256Digest(w.buffer());
    secrets_[i] = digest;
  }
}

Signer KeyDirectory::SignerFor(torbase::NodeId id) const {
  assert(id < secrets_.size());
  return Signer(id, secrets_[id]);
}

Signature KeyDirectory::ComputeSignature(torbase::NodeId id,
                                         const std::array<uint8_t, 32>& secret,
                                         std::span<const uint8_t> message) {
  Signature sig;
  sig.signer = id;
  sig.bytes = MacHalves(secret, message);
  return sig;
}

bool KeyDirectory::Verify(std::span<const uint8_t> message, const Signature& sig) const {
  if (sig.signer >= secrets_.size()) {
    return false;
  }
  const Signature expected = ComputeSignature(sig.signer, secrets_[sig.signer], message);
  return torbase::ConstantTimeEqual(expected.bytes, sig.bytes);
}

bool KeyDirectory::Verify(const std::string& message, const Signature& sig) const {
  return Verify(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                         message.size()),
                sig);
}

}  // namespace torcrypto
