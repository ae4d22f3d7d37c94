#include "src/crypto/sha256_batch.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/sha256_internal.h"

namespace torcrypto {
namespace {

using internal::ProcessBlocksFn;

// Single-stream compression core for a batch backend: the AVX2 lanes fall
// back to scalar for their per-lane tails so a pinned-to-AVX2 batch never
// silently routes bytes through SHA-NI (keeps the core under test honest).
ProcessBlocksFn TailFnFor(Sha256Backend backend) {
  switch (backend) {
#if TORCRYPTO_HAVE_X86_SIMD
    case Sha256Backend::kShaNi:
      return &internal::ProcessBlocksShaNi;
#endif
    default:
      return &internal::ProcessBlocksScalar;
  }
}

// Digests one message with an explicit compression core.
void DigestSingle(ProcessBlocksFn fn, std::span<const uint8_t> message,
                  uint8_t out[kSha256DigestSize]) {
  uint32_t state[8];
  std::copy(std::begin(internal::kSha256Iv), std::end(internal::kSha256Iv), state);
  const size_t full_blocks = message.size() / kSha256BlockSize;
  if (full_blocks > 0) {
    fn(state, message.data(), full_blocks);
  }
  const size_t tail_at = full_blocks * kSha256BlockSize;
  internal::FinishStream(fn, state, message.data() + tail_at, message.size() - tail_at,
                         message.size(), out);
}

#if TORCRYPTO_HAVE_X86_SIMD
// Digests up to 8 messages in lock-step AVX2 lanes: all lanes advance through
// their common prefix of full blocks together, then each lane finishes its
// remaining blocks and padding on the scalar core. Lane transitions are
// identical to scalar at every step, so the digests are byte-identical.
void DigestGroupAvx2(std::span<const std::span<const uint8_t>> group,
                     std::array<uint8_t, kSha256DigestSize>* out) {
  assert(!group.empty() && group.size() <= 8);
  uint32_t states[8][8];
  uint32_t* state_ptrs[8];
  const uint8_t* data_ptrs[8];
  size_t min_full_blocks = group[0].size() / kSha256BlockSize;
  for (size_t lane = 0; lane < 8; ++lane) {
    std::copy(std::begin(internal::kSha256Iv), std::end(internal::kSha256Iv), states[lane]);
    state_ptrs[lane] = states[lane];
    // Idle lanes (group smaller than 8) mirror lane 0's data; their state is
    // discarded. min_full_blocks only covers real lanes, so the mirrored
    // pointer is always readable for the lock-step stretch.
    const auto& msg = lane < group.size() ? group[lane] : group[0];
    data_ptrs[lane] = msg.data();
    if (lane < group.size()) {
      min_full_blocks = std::min(min_full_blocks, msg.size() / kSha256BlockSize);
    }
  }
  if (min_full_blocks > 0) {
    internal::ProcessBlocks8Avx2(state_ptrs, data_ptrs, min_full_blocks);
  }
  for (size_t lane = 0; lane < group.size(); ++lane) {
    const auto& msg = group[lane];
    const size_t full_blocks = msg.size() / kSha256BlockSize;
    size_t offset = min_full_blocks * kSha256BlockSize;
    if (full_blocks > min_full_blocks) {
      internal::ProcessBlocksScalar(states[lane], msg.data() + offset,
                                    full_blocks - min_full_blocks);
      offset = full_blocks * kSha256BlockSize;
    }
    internal::FinishStream(&internal::ProcessBlocksScalar, states[lane], msg.data() + offset,
                           msg.size() - offset, msg.size(), out[lane].data());
  }
}
#endif  // TORCRYPTO_HAVE_X86_SIMD

}  // namespace

Sha256Batch::Sha256Batch() : backend_(ActiveSha256BatchBackend()) {}

Sha256Batch::Sha256Batch(Sha256Backend backend) : backend_(backend) {
  assert(Sha256BackendSupported(backend));
}

std::vector<std::array<uint8_t, kSha256DigestSize>> Sha256Batch::Finish() {
  std::vector<std::array<uint8_t, kSha256DigestSize>> digests(messages_.size());
#if TORCRYPTO_HAVE_X86_SIMD
  if (backend_ == Sha256Backend::kAvx2x8) {
    for (size_t at = 0; at < messages_.size(); at += 8) {
      const size_t lanes = std::min<size_t>(8, messages_.size() - at);
      DigestGroupAvx2(std::span(messages_).subspan(at, lanes), &digests[at]);
    }
    messages_.clear();
    return digests;
  }
#endif
  const ProcessBlocksFn fn = TailFnFor(backend_);
  for (size_t i = 0; i < messages_.size(); ++i) {
    DigestSingle(fn, messages_[i], digests[i].data());
  }
  messages_.clear();
  return digests;
}

}  // namespace torcrypto
