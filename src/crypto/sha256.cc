#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/sha256_internal.h"

namespace torcrypto {
namespace {

using internal::kSha256Iv;
using internal::kSha256K;
using internal::ProcessBlocksFn;

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void RenderDigestBigEndian(const uint32_t state[8], uint8_t out[kSha256DigestSize]) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state[i]);
  }
}

ProcessBlocksFn FnForBackend(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::kScalar:
      return &internal::ProcessBlocksScalar;
#if TORCRYPTO_HAVE_X86_SIMD
    case Sha256Backend::kShaNi:
      return internal::CpuHasShaNi() ? &internal::ProcessBlocksShaNi
                                     : &internal::ProcessBlocksScalar;
#endif
    default:
      // kAvx2x8 has no single-stream form; pin to the best single-stream core.
      return internal::ResolveProcessBlocks();
  }
}

}  // namespace

namespace internal {

void ProcessBlocksScalar(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (size_t blk = 0; blk < blocks; ++blk, data += kSha256BlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(data[4 * i]) << 24 | static_cast<uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<uint32_t>(data[4 * i + 2]) << 8 | static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];
    uint32_t f = state[5];
    uint32_t g = state[6];
    uint32_t h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void FinishStream(ProcessBlocksFn fn, uint32_t state[8], const uint8_t* tail, size_t tail_len,
                  uint64_t total_bytes, uint8_t out[32]) {
  assert(tail_len < kSha256BlockSize);
  // Final block(s): tail, 0x80, zeros, then the 64-bit big-endian bit length.
  uint8_t block[2 * kSha256BlockSize] = {};
  std::memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  const size_t blocks = (tail_len + 1 + 8 <= kSha256BlockSize) ? 1 : 2;
  const uint64_t bit_length = total_bytes * 8;
  uint8_t* len_at = block + blocks * kSha256BlockSize - 8;
  for (int i = 0; i < 8; ++i) {
    len_at[i] = static_cast<uint8_t>(bit_length >> (8 * (7 - i)));
  }
  fn(state, block, blocks);
  RenderDigestBigEndian(state, out);
}

ProcessBlocksFn ResolveProcessBlocks() {
#if TORCRYPTO_HAVE_X86_SIMD
  static const ProcessBlocksFn resolved =
      CpuHasShaNi() ? &ProcessBlocksShaNi : &ProcessBlocksScalar;
  return resolved;
#else
  return &ProcessBlocksScalar;
#endif
}

}  // namespace internal

const char* Sha256BackendName(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::kScalar:
      return "scalar";
    case Sha256Backend::kShaNi:
      return "sha-ni";
    case Sha256Backend::kAvx2x8:
      return "avx2-x8";
  }
  return "?";
}

bool Sha256BackendSupported(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::kScalar:
      return true;
    case Sha256Backend::kShaNi:
      return internal::CpuHasShaNi();
    case Sha256Backend::kAvx2x8:
      return internal::CpuHasAvx2();
  }
  return false;
}

Sha256Backend ActiveSha256Backend() {
  return internal::CpuHasShaNi() ? Sha256Backend::kShaNi : Sha256Backend::kScalar;
}

Sha256Backend ActiveSha256BatchBackend() {
  // A single SHA-NI stream outruns 8 interleaved AVX2 lanes per core, so with
  // both present the batch just runs messages back-to-back through SHA-NI; the
  // AVX2 lanes cover CPUs that have AVX2 but not the SHA extensions.
  if (internal::CpuHasShaNi()) {
    return Sha256Backend::kShaNi;
  }
  if (internal::CpuHasAvx2()) {
    return Sha256Backend::kAvx2x8;
  }
  return Sha256Backend::kScalar;
}

Sha256::Sha256() : process_blocks_(internal::ResolveProcessBlocks()) { Reset(); }

Sha256::Sha256(Sha256Backend backend) : process_blocks_(FnForBackend(backend)) {
  assert(Sha256BackendSupported(backend));
  Reset();
}

void Sha256::Reset() {
  std::memcpy(state_, kSha256Iv, sizeof(state_));
  total_bytes_ = 0;
  buffered_ = 0;
  finished_ = false;
}

void Sha256::Update(std::span<const uint8_t> data) {
  assert(!finished_ && "Sha256::Update after Finish() without Reset()");
  if (data.empty()) {
    return;  // an empty span may carry a null pointer, which memcpy must not see
  }
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    const size_t take = std::min(data.size(), kSha256BlockSize - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == kSha256BlockSize) {
      process_blocks_(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  const size_t whole_blocks = (data.size() - offset) / kSha256BlockSize;
  if (whole_blocks > 0) {
    process_blocks_(state_, data.data() + offset, whole_blocks);
    offset += whole_blocks * kSha256BlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

std::array<uint8_t, kSha256DigestSize> Sha256::Finish() {
  assert(!finished_ && "Sha256::Finish called twice without Reset()");
  std::array<uint8_t, kSha256DigestSize> digest;
  internal::FinishStream(process_blocks_, state_, buffer_, buffered_, total_bytes_, digest.data());
  finished_ = true;
  return digest;
}

std::array<uint8_t, kSha256DigestSize> Sha256Digest(std::span<const uint8_t> data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

std::array<uint8_t, kSha256DigestSize> Sha256DigestForBackend(Sha256Backend backend,
                                                              std::span<const uint8_t> data) {
  Sha256 ctx(backend);
  ctx.Update(data);
  return ctx.Finish();
}

}  // namespace torcrypto
