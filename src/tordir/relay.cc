#include "src/tordir/relay.h"

#include <cctype>

#include "src/common/bytes.h"

namespace tordir {

const RelayFlag kRelayFlagOrder[10] = {
    RelayFlag::kAuthority, RelayFlag::kBadExit, RelayFlag::kExit,   RelayFlag::kFast,
    RelayFlag::kGuard,     RelayFlag::kHSDir,   RelayFlag::kRunning, RelayFlag::kStable,
    RelayFlag::kV2Dir,     RelayFlag::kValid,
};

std::string FingerprintHex(const Fingerprint& fp) { return torbase::HexEncodeUpper(fp); }

std::optional<Fingerprint> FingerprintFromHex(std::string_view hex) {
  auto decoded = torbase::HexDecode(hex);
  if (!decoded.has_value() || decoded->size() != 20) {
    return std::nullopt;
  }
  Fingerprint fp;
  std::copy(decoded->begin(), decoded->end(), fp.begin());
  return fp;
}

const char* RelayFlagName(RelayFlag flag) {
  switch (flag) {
    case RelayFlag::kAuthority:
      return "Authority";
    case RelayFlag::kBadExit:
      return "BadExit";
    case RelayFlag::kExit:
      return "Exit";
    case RelayFlag::kFast:
      return "Fast";
    case RelayFlag::kGuard:
      return "Guard";
    case RelayFlag::kHSDir:
      return "HSDir";
    case RelayFlag::kRunning:
      return "Running";
    case RelayFlag::kStable:
      return "Stable";
    case RelayFlag::kV2Dir:
      return "V2Dir";
    case RelayFlag::kValid:
      return "Valid";
  }
  return "?";
}

std::string FlagsToString(uint16_t flags) {
  std::string out;
  for (RelayFlag flag : kRelayFlagOrder) {
    if ((flags & static_cast<uint16_t>(flag)) != 0) {
      if (!out.empty()) {
        out += ' ';
      }
      out += RelayFlagName(flag);
    }
  }
  return out;
}

bool RelayOrder(const RelayStatus& a, const RelayStatus& b) {
  return a.fingerprint < b.fingerprint;
}

int CompareVersions(std::string_view a, std::string_view b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool a_digit = i < a.size() && std::isdigit(static_cast<unsigned char>(a[i])) != 0;
    const bool b_digit = j < b.size() && std::isdigit(static_cast<unsigned char>(b[j])) != 0;
    if (a_digit && b_digit) {
      // Compare the full numeric runs.
      uint64_t va = 0;
      uint64_t vb = 0;
      while (i < a.size() && std::isdigit(static_cast<unsigned char>(a[i])) != 0) {
        va = va * 10 + static_cast<uint64_t>(a[i++] - '0');
      }
      while (j < b.size() && std::isdigit(static_cast<unsigned char>(b[j])) != 0) {
        vb = vb * 10 + static_cast<uint64_t>(b[j++] - '0');
      }
      if (va != vb) {
        return va < vb ? -1 : 1;
      }
      continue;
    }
    const char ca = i < a.size() ? a[i] : '\0';
    const char cb = j < b.size() ? b[j] : '\0';
    if (ca != cb) {
      return ca < cb ? -1 : 1;
    }
    ++i;
    ++j;
  }
  return 0;
}

}  // namespace tordir
