// Relay status entries: the per-relay record carried in vote and consensus
// documents (dir-spec §3.4.1 "r"/"s"/"v"/"pr"/"w"/"p"/"m" items).
#ifndef SRC_TORDIR_RELAY_H_
#define SRC_TORDIR_RELAY_H_

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/tordir/string_pool.h"

namespace tordir {

// 20-byte relay identity fingerprint (Tor renders these as 40 uppercase hex
// characters, as in Figure 1 of the paper).
using Fingerprint = std::array<uint8_t, 20>;

std::string FingerprintHex(const Fingerprint& fp);
std::optional<Fingerprint> FingerprintFromHex(std::string_view hex);

// Router status flags (dir-spec "known-flags"). Kept as a bitmask.
enum class RelayFlag : uint16_t {
  kAuthority = 1 << 0,
  kBadExit = 1 << 1,
  kExit = 1 << 2,
  kFast = 1 << 3,
  kGuard = 1 << 4,
  kHSDir = 1 << 5,
  kRunning = 1 << 6,
  kStable = 1 << 7,
  kV2Dir = 1 << 8,
  kValid = 1 << 9,
};

constexpr uint16_t kAllRelayFlags = (1 << 10) - 1;

// Canonical dir-spec order for rendering "s" lines.
extern const RelayFlag kRelayFlagOrder[10];

const char* RelayFlagName(RelayFlag flag);

// Renders set flags in canonical order, space separated ("Exit Fast Running").
std::string FlagsToString(uint16_t flags);

// One relay's status as seen by one authority (a vote row) or as agreed in the
// consensus document.
//
// The five string fields are interned (src/tordir/string_pool.h): assignments
// and comparisons against ordinary strings still read naturally, but a
// RelayStatus copy moves no heap memory and equality is five integer
// compares — the property the O(n·a) consensus aggregation and the per-actor
// vote copies in the scenario runner rely on.
struct RelayStatus {
  Fingerprint fingerprint{};
  InternedString nickname;
  InternedString address;   // dotted quad
  uint16_t or_port = 0;
  uint16_t dir_port = 0;
  uint64_t published = 0;   // unix seconds
  uint16_t flags = 0;       // RelayFlag bitmask
  InternedString version;   // e.g. "Tor 0.4.8.10"
  InternedString protocols; // "pr" line payload
  uint64_t bandwidth = 0;   // claimed, in KB/s
  std::optional<uint64_t> measured;  // bwauth measurement, KB/s
  InternedString exit_policy;  // port summary, e.g. "accept 80,443"
  std::array<uint8_t, 32> microdesc_digest{};

  bool HasFlag(RelayFlag flag) const { return (flags & static_cast<uint16_t>(flag)) != 0; }
  void SetFlag(RelayFlag flag, bool on) {
    if (on) {
      flags |= static_cast<uint16_t>(flag);
    } else {
      flags &= static_cast<uint16_t>(~static_cast<uint16_t>(flag));
    }
  }

  bool operator==(const RelayStatus&) const = default;
};

// Orders by fingerprint, the canonical document order.
bool RelayOrder(const RelayStatus& a, const RelayStatus& b);

// Compares dotted version strings ("Tor 0.4.8.10" vs "Tor 0.4.8.9") by their
// numeric components; non-numeric prefixes compare lexicographically first.
// Returns <0, 0, >0.
int CompareVersions(std::string_view a, std::string_view b);

}  // namespace tordir

#endif  // SRC_TORDIR_RELAY_H_
