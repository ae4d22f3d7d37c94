#include "src/tordir/consensus_diff.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/sha256_tree.h"
#include "src/tordir/dirspec.h"

namespace tordir {
namespace {

using torbase::Result;
using torbase::Status;

constexpr std::string_view kDiffVersionLine = "network-status-diff-version 1";
constexpr std::string_view kBasePrefix = "base sha256-tree-v1 ";
constexpr std::string_view kTargetPrefix = "target sha256-tree-v1 ";
constexpr std::string_view kVotesCountedPrefix = "target-votes-counted ";
constexpr std::string_view kValidAfterPrefix = "target-valid-after ";
constexpr std::string_view kFreshUntilPrefix = "target-fresh-until ";
constexpr std::string_view kValidUntilPrefix = "target-valid-until ";
constexpr std::string_view kDiffFooterLine = "directory-diff-footer";
constexpr std::string_view kSignaturePrefix = "directory-signature ";
constexpr std::string_view kBaseFooter = "\ndirectory-footer\n";

// Row equality in the *consensus-serialized* form: every field that reaches
// the wire. `measured` is deliberately excluded — consensus rows never carry
// it (see WriteConsensusUnsigned), so two rows differing only there serialize
// identically and must not produce a C op.
bool RowEqualInConsensusForm(const RelayStatus& a, const RelayStatus& b) {
  return a.fingerprint == b.fingerprint && a.nickname == b.nickname && a.address == b.address &&
         a.or_port == b.or_port && a.dir_port == b.dir_port && a.published == b.published &&
         a.flags == b.flags && a.version == b.version && a.protocols == b.protocols &&
         a.bandwidth == b.bandwidth && a.exit_policy == b.exit_policy &&
         a.microdesc_digest == b.microdesc_digest;
}

// Fingerprint order over the sorted relay lists; memcmp matches RelayOrder
// (byte-wise over the 20-byte fingerprint).
int CompareFingerprints(const Fingerprint& a, const Fingerprint& b) {
  return std::memcmp(a.data(), b.data(), a.size());
}

void AppendOpLine(std::string& out, char op, const Fingerprint& fp) {
  char buf[43];
  buf[0] = op;
  buf[1] = ' ';
  torbase::HexEncodeUpperTo(fp, buf + 2);
  buf[42] = '\n';
  out.append(buf, sizeof(buf));
}

void AppendU64Line(std::string& out, std::string_view prefix, uint64_t value) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof(digits), value);
  out.append(prefix);
  out.append(digits, static_cast<size_t>(result.ptr - digits));
  out.push_back('\n');
}

// Canonical documents are already fingerprint-sorted; unsorted callers pay one
// shadow sort so the merge (and the op ordering Apply enforces) stays correct.
const std::vector<RelayStatus>& SortedRelays(const std::vector<RelayStatus>& relays,
                                             std::vector<RelayStatus>& scratch) {
  if (std::is_sorted(relays.begin(), relays.end(), RelayOrder)) {
    return relays;
  }
  scratch = relays;
  std::sort(scratch.begin(), scratch.end(), RelayOrder);
  return scratch;
}

// Reads the next '\n'-terminated line; refuses unterminated tails (canonical
// diffs always end in a newline).
bool NextLine(std::string_view text, size_t& pos, std::string_view& line) {
  if (pos >= text.size()) {
    return false;
  }
  const size_t nl = text.find('\n', pos);
  if (nl == std::string_view::npos) {
    return false;
  }
  line = text.substr(pos, nl - pos);
  pos = nl + 1;
  return true;
}

bool ParseDigestLine(std::string_view line, std::string_view prefix, torcrypto::Digest256& out) {
  if (line.size() != prefix.size() + 64 || line.substr(0, prefix.size()) != prefix) {
    return false;
  }
  std::array<uint8_t, 32> bytes;
  if (!torbase::HexDecodeTo(line.substr(prefix.size()), bytes)) {
    return false;
  }
  out = torcrypto::Digest256(bytes);
  return true;
}

bool ParseU64Line(std::string_view line, std::string_view prefix, uint64_t& out) {
  if (line.substr(0, prefix.size()) != prefix) {
    return false;
  }
  const std::string_view digits = line.substr(prefix.size());
  if (digits.empty()) {
    return false;
  }
  const auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), out);
  return ec == std::errc() && ptr == digits.data() + digits.size();
}

// The framing lines: the two tree digests, then the target's header fields.
// ComputeConsensusDiff writes them with this and ParseFraming accepts only
// its output.
void AppendFraming(std::string& out, const torcrypto::Digest256& base_digest,
                   const torcrypto::Digest256& target_digest, const ConsensusDocument& target) {
  out.append(kDiffVersionLine);
  out.push_back('\n');
  out.append(kBasePrefix);
  out.append(base_digest.ToHex());
  out.push_back('\n');
  out.append(kTargetPrefix);
  out.append(target_digest.ToHex());
  out.push_back('\n');
  AppendU64Line(out, kVotesCountedPrefix, target.vote_count);
  AppendU64Line(out, kValidAfterPrefix, target.valid_after);
  AppendU64Line(out, kFreshUntilPrefix, target.fresh_until);
  AppendU64Line(out, kValidUntilPrefix, target.valid_until);
}

struct DiffFraming {
  torcrypto::Digest256 base_digest;
  torcrypto::Digest256 target_digest;
  ConsensusDocument target;  // header fields only: no relays, no signatures
};

// Reads the framing, then renders it again and compares: a second spelling of
// the same values (leading zeros, uppercase digest hex) is refused, exactly as
// the dir-spec parsers refuse one.
Status ParseFraming(std::string_view diff, size_t& pos, DiffFraming& framing) {
  std::string_view line;
  if (!NextLine(diff, pos, line) || line != kDiffVersionLine) {
    return Status::InvalidArgument("not a v1 consensus diff");
  }
  if (!NextLine(diff, pos, line) || !ParseDigestLine(line, kBasePrefix, framing.base_digest)) {
    return Status::InvalidArgument("malformed diff base digest line");
  }
  if (!NextLine(diff, pos, line) || !ParseDigestLine(line, kTargetPrefix, framing.target_digest)) {
    return Status::InvalidArgument("malformed diff target digest line");
  }
  ConsensusDocument& target = framing.target;
  uint64_t vote_count = 0;
  if (!NextLine(diff, pos, line) || !ParseU64Line(line, kVotesCountedPrefix, vote_count) ||
      !NextLine(diff, pos, line) || !ParseU64Line(line, kValidAfterPrefix, target.valid_after) ||
      !NextLine(diff, pos, line) || !ParseU64Line(line, kFreshUntilPrefix, target.fresh_until) ||
      !NextLine(diff, pos, line) || !ParseU64Line(line, kValidUntilPrefix, target.valid_until)) {
    return Status::InvalidArgument("malformed diff target header line");
  }
  target.vote_count = static_cast<uint32_t>(vote_count);
  std::string canonical;
  AppendFraming(canonical, framing.base_digest, framing.target_digest, target);
  if (diff.substr(0, pos) != canonical) {
    return Status::InvalidArgument("non-canonical diff framing");
  }
  return Status::Ok();
}

bool IsUppercaseHex40(std::string_view s) {
  if (s.size() != 40) {
    return false;
  }
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'A' && c <= 'F'))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string ComputeConsensusDiff(const ConsensusDocument& base, const ConsensusDocument& target,
                                 const ConsensusDiffOptions& options) {
  const torcrypto::Digest256 base_digest = options.base_digest.IsZero()
                                               ? TreeSignedConsensusDigest(base, options.pool)
                                               : options.base_digest;
  const torcrypto::Digest256 target_digest = options.target_digest.IsZero()
                                                 ? TreeSignedConsensusDigest(target, options.pool)
                                                 : options.target_digest;

  std::vector<RelayStatus> base_scratch;
  std::vector<RelayStatus> target_scratch;
  const std::vector<RelayStatus>& b = SortedRelays(base.relays, base_scratch);
  const std::vector<RelayStatus>& t = SortedRelays(target.relays, target_scratch);

  // Count pass: exact op totals size the output in one reservation.
  size_t removed = 0;
  size_t carried = 0;  // changed + added rows, each followed by replacement bytes
  for (size_t i = 0, j = 0; i < b.size() || j < t.size();) {
    const int cmp = i == b.size()   ? 1
                    : j == t.size() ? -1
                                    : CompareFingerprints(b[i].fingerprint, t[j].fingerprint);
    if (cmp < 0) {
      ++removed;
      ++i;
    } else if (cmp > 0) {
      ++carried;
      ++j;
    } else {
      carried += RowEqualInConsensusForm(b[i], t[j]) ? 0 : 1;
      ++i;
      ++j;
    }
  }

  std::string out;
  out.reserve(512 + removed * 43 + carried * (43 + 470) + target.signatures.size() * 160);
  AppendFraming(out, base_digest, target_digest, target);

  for (size_t i = 0, j = 0; i < b.size() || j < t.size();) {
    const int cmp = i == b.size()   ? 1
                    : j == t.size() ? -1
                                    : CompareFingerprints(b[i].fingerprint, t[j].fingerprint);
    if (cmp < 0) {
      AppendOpLine(out, 'X', b[i].fingerprint);
      ++i;
    } else if (cmp > 0) {
      AppendOpLine(out, 'A', t[j].fingerprint);
      AppendRelayRowText(out, t[j], /*include_measured=*/false);
      ++j;
    } else {
      if (!RowEqualInConsensusForm(b[i], t[j])) {
        AppendOpLine(out, 'C', t[j].fingerprint);
        AppendRelayRowText(out, t[j], /*include_measured=*/false);
      }
      ++i;
      ++j;
    }
  }
  out.append(kDiffFooterLine);
  out.push_back('\n');
  AppendSignatureLinesText(out, target.signatures);
  return out;
}

Result<std::string> ApplyConsensusDiff(std::string_view base, std::string_view diff,
                                       const ApplyDiffOptions& options) {
  size_t pos = 0;
  DiffFraming framing;
  if (Status s = ParseFraming(diff, pos, framing); !s.ok()) {
    return s;
  }
  if (options.verify_base &&
      torcrypto::Digest256(torcrypto::Sha256TreeDigest(base, options.pool)) !=
          framing.base_digest) {
    return Status::FailedPrecondition("consensus diff base digest mismatch");
  }

  // Bound the base's relay-row region: everything before the first "r " line
  // is the old header (rewritten from the diff framing), everything after the
  // footer is the old signature tail (replaced by the diff's).
  const size_t footer_nl = base.find(kBaseFooter);
  if (footer_nl == std::string_view::npos) {
    return Status::InvalidArgument("base document has no directory-footer");
  }
  const size_t rows_end = footer_nl + 1;  // offset of the footer's 'd'
  size_t first_row = base.find("\nr ");
  first_row =
      (first_row == std::string_view::npos || first_row > footer_nl) ? rows_end : first_row + 1;

  std::string out;
  out.reserve(base.size() + diff.size());
  AppendConsensusHeaderText(out, framing.target);

  // One streaming merge over the base rows: `row` is the current row's start,
  // `copy_from` the start of the pending bulk copy. Rows between edit points
  // are never touched byte-by-byte — they flush in one append per op.
  size_t row = first_row;
  size_t copy_from = first_row;
  std::string_view row_fp;
  const auto load_fp = [&]() -> bool {
    // "r <nickname> <FP-40-hex> ..." — the fingerprint sits after the second
    // space and is followed by one.
    const size_t sp = base.find(' ', row + 2);
    if (sp == std::string_view::npos || sp + 41 >= rows_end || base[sp + 41] != ' ') {
      return false;
    }
    row_fp = base.substr(sp + 1, 40);
    return true;
  };
  const auto advance_row = [&]() -> bool {
    const size_t next = base.find("\nr ", row);
    row = (next == std::string_view::npos || next > footer_nl) ? rows_end : next + 1;
    return row == rows_end || load_fp();
  };
  if (row != rows_end && !load_fp()) {
    return Status::InvalidArgument("malformed base relay row");
  }

  char prev_fp[40];
  bool have_prev = false;
  bool saw_footer = false;
  std::string_view line;
  while (NextLine(diff, pos, line)) {
    if (line == kDiffFooterLine) {
      saw_footer = true;
      break;
    }
    if (line.size() != 42 || line[1] != ' ' ||
        (line[0] != 'X' && line[0] != 'C' && line[0] != 'A')) {
      return Status::InvalidArgument("malformed diff op line: " + std::string(line));
    }
    const char op = line[0];
    const std::string_view fp = line.substr(2);
    if (!IsUppercaseHex40(fp)) {
      return Status::InvalidArgument("bad diff op fingerprint: " + std::string(fp));
    }
    // Strictly increasing ops are what make the single forward merge valid.
    if (have_prev && fp.compare(std::string_view(prev_fp, 40)) <= 0) {
      return Status::InvalidArgument("diff ops out of fingerprint order");
    }
    std::memcpy(prev_fp, fp.data(), 40);
    have_prev = true;

    // C/A replacement bytes: every following line until the next op or the
    // footer. Relay item lines are all lowercase, so uppercase ops and the
    // footer's 'd' terminate the run unambiguously.
    std::string_view replacement;
    if (op != 'X') {
      const size_t r_begin = pos;
      while (pos < diff.size()) {
        const char c = diff[pos];
        if (c == 'X' || c == 'C' || c == 'A' || c == 'd') {
          break;
        }
        const size_t nl = diff.find('\n', pos);
        if (nl == std::string_view::npos) {
          return Status::InvalidArgument("unterminated diff row line");
        }
        pos = nl + 1;
      }
      replacement = diff.substr(r_begin, pos - r_begin);
      if (replacement.substr(0, 2) != "r ") {
        return Status::InvalidArgument("diff op carries no replacement row");
      }
    }

    if (op == 'A') {
      // Insert before the first base row with a larger fingerprint.
      while (row != rows_end && row_fp < fp) {
        if (!advance_row()) {
          return Status::InvalidArgument("malformed base relay row");
        }
      }
      if (row != rows_end && row_fp == fp) {
        return Status::InvalidArgument("diff insert collides with base row");
      }
      out.append(base.substr(copy_from, row - copy_from));
      copy_from = row;
      out.append(replacement);
    } else {
      // X/C: seek the exact base row, flush the bulk copy up to it, skip it.
      while (row != rows_end && row_fp < fp) {
        if (!advance_row()) {
          return Status::InvalidArgument("malformed base relay row");
        }
      }
      if (row == rows_end || row_fp != fp) {
        return Status::InvalidArgument("diff op fingerprint not in base document");
      }
      out.append(base.substr(copy_from, row - copy_from));
      if (!advance_row()) {
        return Status::InvalidArgument("malformed base relay row");
      }
      copy_from = row;
      if (op == 'C') {
        out.append(replacement);
      }
    }
  }
  if (!saw_footer) {
    return Status::InvalidArgument("missing directory-diff-footer");
  }

  // Remaining base rows, the footer, then the diff's signature tail verbatim
  // (shape-checked so structural damage is caught even before the digest).
  out.append(base.substr(copy_from, rows_end - copy_from));
  out.append("directory-footer\n");
  const std::string_view signatures = diff.substr(pos);
  for (size_t sig_pos = 0; sig_pos < signatures.size();) {
    if (signatures.substr(sig_pos, kSignaturePrefix.size()) != kSignaturePrefix) {
      return Status::InvalidArgument("unexpected line after directory-diff-footer");
    }
    const size_t nl = signatures.find('\n', sig_pos);
    if (nl == std::string_view::npos) {
      return Status::InvalidArgument("unterminated signature line");
    }
    sig_pos = nl + 1;
  }
  out.append(signatures);

  if (options.verify_target &&
      torcrypto::Digest256(torcrypto::Sha256TreeDigest(out, options.pool)) !=
          framing.target_digest) {
    return Status::FailedPrecondition("patched document does not match the target digest");
  }
  return out;
}

Result<ConsensusDiffHeader> ParseConsensusDiffHeader(std::string_view diff) {
  size_t pos = 0;
  DiffFraming framing;
  if (Status s = ParseFraming(diff, pos, framing); !s.ok()) {
    return s;
  }
  return ConsensusDiffHeader{framing.base_digest, framing.target_digest};
}

Result<std::string> ApplyConsensusDiffChain(std::string_view base,
                                            const std::vector<std::string_view>& diffs,
                                            const ApplyDiffOptions& options) {
  if (diffs.empty()) {
    return std::string(base);
  }
  // The chain anchor: the client's held document must be the one the first
  // diff patches. Verified unconditionally — this is the one link where no
  // previous target digest vouches for the base bytes.
  Result<ConsensusDiffHeader> first = ParseConsensusDiffHeader(diffs.front());
  if (!first.ok()) {
    return first.status();
  }
  if (torcrypto::Digest256(torcrypto::Sha256TreeDigest(base, options.pool)) !=
      first->base_digest) {
    return Status::FailedPrecondition("diff chain does not start at the held document");
  }

  torcrypto::Digest256 previous_target = first->base_digest;
  // The first link patches the caller's bytes in place of a copy; each later
  // link patches the previous link's output.
  std::string current;
  for (size_t i = 0; i < diffs.size(); ++i) {
    Result<ConsensusDiffHeader> header = ParseConsensusDiffHeader(diffs[i]);
    if (!header.ok()) {
      return header.status();
    }
    if (header->base_digest != previous_target) {
      return Status::FailedPrecondition("diff chain broken at link " + std::to_string(i) +
                                        ": base digest does not match the previous target");
    }
    // The anchor check (and each link's verified target) already vouch for
    // the running document, so per-link base verification is redundant work.
    ApplyDiffOptions link_options = options;
    link_options.verify_base = false;
    Result<std::string> patched =
        ApplyConsensusDiff(i == 0 ? base : std::string_view(current), diffs[i], link_options);
    if (!patched.ok()) {
      return patched.status();
    }
    current = std::move(*patched);
    previous_target = header->target_digest;
  }
  return current;
}

}  // namespace tordir
