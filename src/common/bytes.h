// Byte-buffer helpers: hex encoding/decoding and byte-vector utilities shared by
// every module in the repository.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace torbase {

using Bytes = std::vector<uint8_t>;

// Fast 64-bit content hash for short keys (interned relay strings, canonical
// flag lines): 8 bytes per multiply-xor round plus a finalizer. Not
// cryptographic and not stable across processes — use only for in-memory hash
// tables, never for wire formats or digests.
inline uint64_t HashBytes(std::string_view s) {
  constexpr uint64_t kMul = 0x9ddfea08eb382d69ull;
  uint64_t h = 0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(s.size()) * kMul);
  size_t i = 0;
  while (i + 8 <= s.size()) {
    uint64_t chunk;
    std::memcpy(&chunk, s.data() + i, 8);
    h = (h ^ chunk) * kMul;
    h ^= h >> 29;
    i += 8;
  }
  if (i < s.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, s.data() + i, s.size() - i);
    h = (h ^ tail) * kMul;
  }
  h ^= h >> 32;
  h *= kMul;
  h ^= h >> 29;
  return h;
}

// Encodes `data` as lowercase hex ("deadbeef").
std::string HexEncode(std::span<const uint8_t> data);

// Encodes `data` as uppercase hex, the convention Tor uses for fingerprints.
std::string HexEncodeUpper(std::span<const uint8_t> data);

// Decodes a hex string (either case). Returns std::nullopt on odd length or
// non-hex characters.
std::optional<Bytes> HexDecode(std::string_view hex);

// Allocation-free forms for hot codec paths (the dir-spec text codec encodes
// and decodes ~100 hex chars per relay; going through a std::string/Bytes
// temporary per field is what these avoid). Inline so fixed-size call sites
// (20-byte fingerprints, 32-byte digests) unroll.
namespace hex_internal {

using HexPair = std::array<char, 2>;  // stored in output order, endian-neutral

constexpr std::array<HexPair, 256> MakePairTable(const char* alphabet) {
  std::array<HexPair, 256> table{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    table[byte] = {alphabet[byte >> 4], alphabet[byte & 0x0f]};
  }
  return table;
}

inline constexpr std::array<HexPair, 256> kPairsLower = MakePairTable("0123456789abcdef");
inline constexpr std::array<HexPair, 256> kPairsUpper = MakePairTable("0123456789ABCDEF");

// 256-entry nibble table: -1 for non-hex characters.
constexpr std::array<int8_t, 256> MakeNibbleTable() {
  std::array<int8_t, 256> table{};
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = -1;
  }
  for (char c = '0'; c <= '9'; ++c) {
    table[static_cast<uint8_t>(c)] = static_cast<int8_t>(c - '0');
  }
  for (char c = 'a'; c <= 'f'; ++c) {
    table[static_cast<uint8_t>(c)] = static_cast<int8_t>(c - 'a' + 10);
  }
  for (char c = 'A'; c <= 'F'; ++c) {
    table[static_cast<uint8_t>(c)] = static_cast<int8_t>(c - 'A' + 10);
  }
  return table;
}

inline constexpr std::array<int8_t, 256> kNibbles = MakeNibbleTable();

// SWAR block encode: 4 input bytes -> 8 hex chars in two shifts, two masks
// and one branch-free decimal/alpha adjust. `alpha_add` is 0x27 for
// lowercase, 0x07 for uppercase. Little-endian only (the caller falls back to
// the pair table otherwise).
inline void Encode4Swar(uint32_t x, char* out, uint64_t alpha_add) {
  // Spread byte k of x to byte 2k of t.
  uint64_t t = x;
  t = (t | (t << 16)) & 0x0000FFFF0000FFFFull;
  t = (t | (t << 8)) & 0x00FF00FF00FF00FFull;
  // High nibble of each input byte lands at even bytes, low nibble at odd —
  // exactly the memory order of the hex digits.
  const uint64_t nibbles =
      ((t >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((t & 0x0F0F0F0F0F0F0F0Full) << 8);
  const uint64_t gt9 = ((nibbles + 0x0606060606060606ull) & 0x1010101010101010ull) >> 4;
  const uint64_t chars = nibbles + 0x3030303030303030ull + gt9 * alpha_add;
  std::memcpy(out, &chars, 8);
}

// Forced inline: the serializer's hex fields have fixed lengths and a fixed
// case, which fold to constants only when this is inlined into each caller.
// GCC's size heuristics otherwise keep one out-of-line copy once a file
// instantiates the writer for several sinks (dirspec.cc does), and the
// serializer loses about a third of its throughput.
[[gnu::always_inline]] inline void EncodeWithCase(std::span<const uint8_t> data, char* out,
                                                  bool upper) {
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    const uint64_t alpha_add = upper ? 0x07 : 0x27;
    for (; i + 4 <= data.size(); i += 4, out += 8) {
      uint32_t block;
      std::memcpy(&block, data.data() + i, 4);
      Encode4Swar(block, out, alpha_add);
    }
  }
  const auto& pairs = upper ? kPairsUpper : kPairsLower;
  for (; i < data.size(); ++i, out += 2) {
    std::memcpy(out, pairs[data[i]].data(), 2);
  }
}

}  // namespace hex_internal

// Encodes `data` into `out`, which must have room for 2 * data.size() chars.
inline void HexEncodeTo(std::span<const uint8_t> data, char* out) {
  hex_internal::EncodeWithCase(data, out, /*upper=*/false);
}

inline void HexEncodeUpperTo(std::span<const uint8_t> data, char* out) {
  hex_internal::EncodeWithCase(data, out, /*upper=*/true);
}

// Decodes `hex` (either case) into exactly `out.size()` bytes. Returns false —
// writing nothing definite — when hex.size() != 2 * out.size() or any
// character is not a hex digit; the accept set matches HexDecode plus the
// length check callers otherwise do on the returned vector.
inline bool HexDecodeTo(std::string_view hex, std::span<uint8_t> out) {
  if (hex.size() != out.size() * 2) {
    return false;
  }
  int acc = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const int hi = hex_internal::kNibbles[static_cast<uint8_t>(hex[2 * i])];
    const int lo = hex_internal::kNibbles[static_cast<uint8_t>(hex[2 * i + 1])];
    acc |= hi | lo;
    out[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return acc >= 0;
}

// Fixed-size form: the span overload's loop with a compile-time trip count.
template <size_t N>
inline bool HexDecodeTo(std::string_view hex, std::array<uint8_t, N>& out) {
  return HexDecodeTo(hex, std::span<uint8_t>(out));
}

// Cheap structural key for short, heavily repeated strings (version /
// protocol / exit-policy memoization): size plus the first and last 8 bytes,
// one multiply-mix. Weaker than HashBytes — callers must byte-compare on
// probe hits — but a fraction of the cost on 100+-char inputs.
inline uint64_t QuickKey(std::string_view s) {
  uint64_t head = 0;
  uint64_t tail = 0;
  if (s.size() >= 8) {
    std::memcpy(&head, s.data(), 8);
    std::memcpy(&tail, s.data() + s.size() - 8, 8);
  } else if (!s.empty()) {
    std::memcpy(&head, s.data(), s.size());
  }
  constexpr uint64_t kMul = 0x9ddfea08eb382d69ull;
  uint64_t h = (head + s.size()) * kMul;
  h ^= tail * 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
  h *= kMul;
  h ^= h >> 29;
  return h;
}

// Returns a Bytes copy of the raw characters of `s`.
Bytes BytesOfString(std::string_view s);

// Returns the raw characters of `b` as a std::string.
std::string StringOfBytes(std::span<const uint8_t> b);

// Constant-time equality; avoids leaking the mismatch position. Not strictly
// needed inside a simulator but cheap and matches how real implementations
// compare digests and MACs.
bool ConstantTimeEqual(std::span<const uint8_t> a, std::span<const uint8_t> b);

}  // namespace torbase

#endif  // SRC_COMMON_BYTES_H_
