#include "src/tordir/dirspec.h"

#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/crypto/sha256_tree.h"

namespace tordir {
namespace {

using torbase::BufferedTextSink;
using torbase::Result;
using torbase::Status;

// --- streaming serializer ----------------------------------------------------
// Every Serialize*/Digest entry point drives the same templated writer over a
// sink: Serialize* uses a StringCursorSink (cursor into the pre-sized output
// string), the digests a BufferedTextSink in front of Sha256::Update — the
// serialized form of a digested document is never materialized. Fields format
// in place (digit pairs, SWAR hex, a canonical-flags table), so serializing
// an n-relay document performs O(1) heap allocations and digesting none. The
// parsers below run the same writer once more to decide what they accept.

struct DigestSinkBackend {
  torcrypto::Sha256& hash;
  void Write(const char* data, size_t n) { hash.Update(data, n); }
};

struct TreeDigestSinkBackend {
  torcrypto::Sha256TreeHasher& hash;
  void Write(const char* data, size_t n) { hash.Update(data, n); }
};

// Backend appending onto an existing string: the fragment writers add to a
// diff under construction rather than owning the whole output, so the cursor
// sink (which resizes its string up front) does not fit.
struct StringAppendBackend {
  std::string& out;
  void Write(const char* data, size_t n) { out.append(data, n); }
};

template <typename Sink>
void AppendU64(Sink& sink, uint64_t value) {
  char* scratch = sink.Scratch(20);
  const auto result = std::to_chars(scratch, scratch + 20, value);
  sink.Commit(static_cast<size_t>(result.ptr - scratch));
}

template <typename Sink>
void AppendHexLower(Sink& sink, std::span<const uint8_t> data) {
  char* scratch = sink.Scratch(data.size() * 2);
  torbase::HexEncodeTo(data, scratch);
  sink.Commit(data.size() * 2);
}

template <typename Sink>
void AppendHexUpper(Sink& sink, std::span<const uint8_t> data) {
  char* scratch = sink.Scratch(data.size() * 2);
  torbase::HexEncodeUpperTo(data, scratch);
  sink.Commit(data.size() * 2);
}

// "<keyword><n>\n", the shape of every numeric header line.
template <typename Sink>
void WriteU64Line(Sink& sink, std::string_view keyword, uint64_t value) {
  sink.Append(keyword);
  AppendU64(sink, value);
  sink.Push('\n');
}

// Canonical flags text, both directions: every one of the 1024 flag masks
// renders to exactly one canonical "s"-line payload (FlagsToString order).
// Pre-rendering the table turns the serializer's per-relay flag loop into one
// append, and its inverse is how the scanner reads an "s" line: a payload the
// table does not hold is one the writer never emits.
class FlagsTable {
 public:
  static const FlagsTable& Get() {
    static const FlagsTable table;  // magic static: thread-safe lazy init
    return table;
  }

  std::string_view Text(uint16_t flags) const { return texts_[flags & kAllRelayFlags]; }

  // Mask for a canonical payload; nullopt for any other spelling (duplicate
  // flags, non-canonical order, stray spaces, unknown names). Open-addressing
  // probe over a fixed table (1024 entries in 4096 slots): one fast hash, a
  // slot load or two, and one final byte compare.
  std::optional<uint16_t> Mask(std::string_view text) const {
    uint32_t idx = static_cast<uint32_t>(torbase::QuickKey(text)) & kSlotMask;
    while (slots_[idx] != 0) {
      const uint16_t mask = static_cast<uint16_t>(slots_[idx] - 1);
      if (texts_[mask] == text) {
        return mask;
      }
      idx = (idx + 1) & kSlotMask;
    }
    return std::nullopt;
  }

 private:
  FlagsTable() {
    for (uint32_t mask = 0; mask < kMaskCount; ++mask) {
      texts_[mask] = FlagsToString(static_cast<uint16_t>(mask));
      uint32_t idx = static_cast<uint32_t>(torbase::QuickKey(texts_[mask])) & kSlotMask;
      while (slots_[idx] != 0) {
        idx = (idx + 1) & kSlotMask;
      }
      slots_[idx] = static_cast<uint16_t>(mask + 1);
    }
  }

  static constexpr uint32_t kMaskCount = kAllRelayFlags + 1;
  static constexpr uint32_t kSlotMask = 4 * kMaskCount - 1;  // 25% load factor
  std::array<std::string, kMaskCount> texts_;
  std::array<uint16_t, 4 * kMaskCount> slots_{};
};

// Appends `s` at `p` and advances it; tolerates empty views with null data.
inline void CopyTo(char*& p, std::string_view s) {
  if (!s.empty()) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
}

// Inline decimal formatter (digit-pair table, written backwards into a stack
// scratch): the serializer emits 4-5 integers per relay and the out-of-line
// std::to_chars call was a top-three cost in the profile. Output bytes are
// identical to std::to_chars.
inline constexpr std::array<std::array<char, 2>, 100> kDigitPairs = [] {
  std::array<std::array<char, 2>, 100> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[i] = {static_cast<char>('0' + i / 10), static_cast<char>('0' + i % 10)};
  }
  return pairs;
}();

inline void PutU64(char*& p, uint64_t value) {
  char tmp[20];
  char* t = tmp + sizeof(tmp);
  while (value >= 100) {
    const uint64_t pair = value % 100;
    value /= 100;
    t -= 2;
    std::memcpy(t, kDigitPairs[pair].data(), 2);
  }
  if (value >= 10) {
    t -= 2;
    std::memcpy(t, kDigitPairs[value].data(), 2);
  } else {
    *--t = static_cast<char>('0' + value);
  }
  const size_t digits = static_cast<size_t>(tmp + sizeof(tmp) - t);
  std::memcpy(p, t, digits);
  p += digits;
}

// Slow path for relay rows whose variable-width strings exceed the one-block
// scratch budget below: per-field appends, any sizes.
template <typename Sink>
void AppendRelayGeneric(Sink& sink, std::string_view nickname, std::string_view address,
                        std::string_view version, std::string_view protocols,
                        std::string_view exit_policy, std::string_view flags_text,
                        const RelayStatus& relay, bool include_measured) {
  sink.Append("r ");
  sink.Append(nickname);
  sink.Push(' ');
  AppendHexUpper(sink, relay.fingerprint);
  sink.Push(' ');
  // Descriptor digest stand-in: first 8 bytes of the microdesc digest. Real
  // entries carry a base64 digest of similar width.
  AppendHexLower(sink, std::span<const uint8_t>(relay.microdesc_digest.data(), 8));
  sink.Push(' ');
  sink.Append(address);
  sink.Push(' ');
  AppendU64(sink, relay.or_port);
  sink.Push(' ');
  AppendU64(sink, relay.dir_port);
  sink.Push(' ');
  AppendU64(sink, relay.published);
  sink.Push('\n');

  sink.Append("s ");
  sink.Append(flags_text);
  sink.Push('\n');

  if (!version.empty()) {
    sink.Append("v ");
    sink.Append(version);
    sink.Push('\n');
  }
  if (!protocols.empty()) {
    sink.Append("pr ");
    sink.Append(protocols);
    sink.Push('\n');
  }

  sink.Append("w Bandwidth=");
  AppendU64(sink, relay.bandwidth);
  if (include_measured && relay.measured.has_value()) {
    sink.Append(" Measured=");
    AppendU64(sink, *relay.measured);
  }
  sink.Push('\n');

  sink.Append("p ");
  sink.Append(exit_policy);
  sink.Push('\n');

  sink.Append("m ");
  AppendHexLower(sink, relay.microdesc_digest);
  sink.Push('\n');
}

template <typename Sink>
void AppendRelay(Sink& sink, const StringPool& pool, const FlagsTable& flags_table,
                 const RelayStatus& relay, bool include_measured) {
  const std::string_view nickname = pool.View(relay.nickname.id());
  const std::string_view address = pool.View(relay.address.id());
  const std::string_view version = pool.View(relay.version.id());
  const std::string_view protocols = pool.View(relay.protocols.id());
  const std::string_view exit_policy = pool.View(relay.exit_policy.id());
  const std::string_view flags_text = flags_table.Text(relay.flags);

  // The whole r/s/v/pr/w/p/m group composes into one scratch block: fixed
  // text and hex account for at most ~290 bytes, so one size check on the
  // variable-width strings covers every write below. Realistic rows are a few
  // hundred bytes; anything larger takes the per-field path.
  const size_t variable_bytes = nickname.size() + address.size() + version.size() +
                                protocols.size() + exit_policy.size() + flags_text.size();
  if (variable_bytes > Sink::kScratchMax - 304) {
    AppendRelayGeneric(sink, nickname, address, version, protocols, exit_policy, flags_text,
                       relay, include_measured);
    return;
  }

  // The microdesc digest renders twice (16-char prefix on the r line, full 64
  // on the m line); encode it once.
  char digest_hex[64];
  torbase::HexEncodeTo(relay.microdesc_digest, digest_hex);

  char* const start = sink.Scratch(Sink::kScratchMax);
  char* p = start;
  // "r <nickname> <FP-40-hex> <digest-16-hex> <address> <orport> <dirport>
  // <published>\n"
  *p++ = 'r';
  *p++ = ' ';
  CopyTo(p, nickname);
  *p++ = ' ';
  torbase::HexEncodeUpperTo(relay.fingerprint, p);
  p += 40;
  *p++ = ' ';
  // Descriptor digest stand-in: first 8 bytes of the microdesc digest. Real
  // entries carry a base64 digest of similar width.
  std::memcpy(p, digest_hex, 16);
  p += 16;
  *p++ = ' ';
  CopyTo(p, address);
  *p++ = ' ';
  PutU64(p, relay.or_port);
  *p++ = ' ';
  PutU64(p, relay.dir_port);
  *p++ = ' ';
  PutU64(p, relay.published);
  *p++ = '\n';

  // "s <flags>\n": the canonical rendering is pre-built per mask.
  *p++ = 's';
  *p++ = ' ';
  CopyTo(p, flags_text);
  *p++ = '\n';

  if (!version.empty()) {
    *p++ = 'v';
    *p++ = ' ';
    CopyTo(p, version);
    *p++ = '\n';
  }
  if (!protocols.empty()) {
    *p++ = 'p';
    *p++ = 'r';
    *p++ = ' ';
    CopyTo(p, protocols);
    *p++ = '\n';
  }

  CopyTo(p, "w Bandwidth=");
  PutU64(p, relay.bandwidth);
  if (include_measured && relay.measured.has_value()) {
    CopyTo(p, " Measured=");
    PutU64(p, *relay.measured);
  }
  *p++ = '\n';

  *p++ = 'p';
  *p++ = ' ';
  CopyTo(p, exit_policy);
  *p++ = '\n';

  *p++ = 'm';
  *p++ = ' ';
  std::memcpy(p, digest_hex, 64);
  p += 64;
  *p++ = '\n';
  sink.Commit(static_cast<size_t>(p - start));
}

template <typename Sink>
void AppendRelays(Sink& sink, const std::vector<RelayStatus>& relays, bool include_measured) {
  const StringPool& pool = StringPool::Global();
  const FlagsTable& flags_table = FlagsTable::Get();
  for (size_t i = 0; i < relays.size(); ++i) {
    if (i + 1 < relays.size()) {
      // The next relay's unique strings live at effectively random pool
      // offsets (documents are fingerprint-sorted, ids are intern-order);
      // warming their entry cells overlaps the fetch with this relay's
      // formatting.
      pool.PrefetchView(relays[i + 1].nickname.id());
      pool.PrefetchView(relays[i + 1].address.id());
    }
    AppendRelay(sink, pool, flags_table, relays[i], include_measured);
  }
}

template <typename Sink>
void WriteValidityLines(Sink& sink, uint64_t valid_after, uint64_t fresh_until,
                        uint64_t valid_until) {
  WriteU64Line(sink, "valid-after ", valid_after);
  WriteU64Line(sink, "fresh-until ", fresh_until);
  WriteU64Line(sink, "valid-until ", valid_until);
}

template <typename Sink>
void WriteVote(Sink& sink, const VoteDocument& vote) {
  sink.Append("network-status-version 3 vote\n");
  sink.Append("authority ");
  sink.Append(vote.authority_nickname);
  sink.Push(' ');
  AppendU64(sink, vote.authority);
  sink.Push('\n');
  WriteValidityLines(sink, vote.valid_after, vote.fresh_until, vote.valid_until);
  sink.Append("known-flags Authority BadExit Exit Fast Guard HSDir Running Stable V2Dir Valid\n");
  AppendRelays(sink, vote.relays, /*include_measured=*/true);
  sink.Append("directory-footer\n");
}

template <typename Sink>
void WriteConsensusHeader(Sink& sink, const ConsensusDocument& consensus) {
  sink.Append("network-status-version 3\n");
  sink.Append("vote-status consensus\n");
  WriteU64Line(sink, "votes-counted ", consensus.vote_count);
  WriteValidityLines(sink, consensus.valid_after, consensus.fresh_until, consensus.valid_until);
}

template <typename Sink>
void WriteConsensusUnsigned(Sink& sink, const ConsensusDocument& consensus) {
  WriteConsensusHeader(sink, consensus);
  // Consensus bandwidth is the aggregated value in `bandwidth`; no Measured.
  AppendRelays(sink, consensus.relays, /*include_measured=*/false);
  sink.Append("directory-footer\n");
}

template <typename Sink>
void WriteSignatureLines(Sink& sink, const std::vector<torcrypto::Signature>& signatures) {
  for (const auto& sig : signatures) {
    sink.Append("directory-signature ");
    AppendU64(sink, sig.signer);
    sink.Push(' ');
    AppendHexLower(sink, sig.bytes);
    sink.Push('\n');
  }
}

// --- parser --------------------------------------------------------------------
// One forward scan over the exact shape the writer emits, then the writer
// itself decides: the scanned document is rendered again and compared with
// the input, so a document parses exactly when it is the writer's own output.
// The scanner therefore judges no spelling. It reads digit runs of any length
// (wrapping past uint64), decodes hex in either case, narrows ports and ids
// without a range check and skips the descriptor-digest word; the comparison
// refuses every spelling the writer would not have produced.

// Forward cursor with sticky failure: the first mismatch records its offset
// and jumps to the end of the text, where every later read fails too, so the
// scan reads straight through without an early return per field.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  bool ok() const { return failed_at_ == kNone; }
  bool AtEnd() const { return pos_ == text_.size(); }
  size_t remaining() const { return text_.size() - pos_; }

  Status Error() const {
    return Status::InvalidArgument("unexpected bytes at offset " + std::to_string(failed_at_));
  }

  void Fail() {
    if (ok()) {
      failed_at_ = pos_;
    }
    pos_ = text_.size();
  }

  bool Peek(std::string_view literal) const {
    return text_.substr(pos_, literal.size()) == literal;
  }
  bool Accept(std::string_view literal) {
    if (!Peek(literal)) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }
  void Expect(std::string_view literal) {
    if (!Accept(literal)) {
      Fail();
    }
  }

  // A non-empty run of bytes up to the next ' ' on this line; consumes the
  // space.
  std::string_view Word() {
    const size_t space = text_.find(' ', pos_);
    const std::string_view word = text_.substr(pos_, space - pos_);
    if (space == std::string_view::npos || word.empty() ||
        word.find('\n') != std::string_view::npos) {
      Fail();
      return {};
    }
    pos_ = space + 1;
    return word;
  }

  // The rest of the line (possibly empty); consumes the '\n'.
  std::string_view Rest() {
    const size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      Fail();
      return {};
    }
    const std::string_view rest = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return rest;
  }

  // A run of decimal digits, inline (the out-of-line std::from_chars call
  // showed up in the parse profile).
  uint64_t Digits() {
    uint64_t value = 0;
    while (pos_ < text_.size()) {
      const unsigned digit = static_cast<unsigned char>(text_[pos_]) - '0';
      if (digit > 9) {
        break;
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  uint64_t Number(char delim) {
    const uint64_t value = Digits();
    Expect(std::string_view(&delim, 1));
    return value;
  }

  // "<keyword><n>\n", the shape WriteU64Line emits.
  uint64_t U64Line(std::string_view keyword) {
    Expect(keyword);
    return Number('\n');
  }

  void Hex(std::string_view hex, std::span<uint8_t> out) {
    if (!torbase::HexDecodeTo(hex, out)) {
      Fail();
    }
  }

 private:
  static constexpr size_t kNone = std::string_view::npos;

  std::string_view text_;
  size_t pos_ = 0;
  size_t failed_at_ = kNone;
};

// Per-document intern memo: a vote repeats a handful of version / protocol /
// exit-policy spellings across thousands of relays; even the pool's lock-free
// probe costs a couple of dependent loads per call. The memo is a tiny
// direct-mapped cache over views into the document being parsed (valid for
// the duration of the Parse call): one hash, one slot, one compare.
// Nicknames and addresses are per-relay unique, so those always intern
// directly.
class InternMemo {
 public:
  InternedString Get(std::string_view s) {
    Entry& entry = entries_[static_cast<uint32_t>(torbase::QuickKey(s)) & (kEntries - 1)];
    if (entry.text == s) {
      return InternedString::FromId(entry.id);
    }
    const InternedString interned(s);
    entry = {s, interned.id()};
    return interned;
  }

 private:
  static constexpr size_t kEntries = 64;
  struct Entry {
    std::string_view text;
    uint32_t id = 0;
  };
  std::array<Entry, kEntries> entries_{};
};

void ScanValidityLines(Scanner& in, uint64_t& valid_after, uint64_t& fresh_until,
                       uint64_t& valid_until) {
  valid_after = in.U64Line("valid-after ");
  fresh_until = in.U64Line("fresh-until ");
  valid_until = in.U64Line("valid-until ");
}

// One r/s/[v]/[pr]/w/p/m row group, in the order AppendRelay writes it.
void ScanRelay(Scanner& in, StringPool& pool, const FlagsTable& flags_table, InternMemo& memo,
               RelayStatus& relay) {
  in.Expect("r ");
  const std::string_view nickname = in.Word();
  // The unique strings intern through the pool's probe table; issuing the
  // prefetches here hides the dependent-load latency behind the hex and
  // integer decoding below.
  pool.PrefetchIntern(nickname);
  in.Hex(in.Word(), relay.fingerprint);
  in.Word();  // descriptor digest: the writer derives it from the m line
  const std::string_view address = in.Word();
  pool.PrefetchIntern(address);
  relay.or_port = static_cast<uint16_t>(in.Number(' '));
  relay.dir_port = static_cast<uint16_t>(in.Number(' '));
  relay.published = in.Number('\n');
  relay.nickname = InternedString::FromId(pool.Intern(nickname));
  relay.address = InternedString::FromId(pool.Intern(address));

  in.Expect("s ");
  if (const auto mask = flags_table.Mask(in.Rest()); mask.has_value()) {
    relay.flags = *mask;
  } else {
    in.Fail();
  }
  if (in.Accept("v ")) {
    relay.version = memo.Get(in.Rest());
  }
  if (in.Accept("pr ")) {
    relay.protocols = memo.Get(in.Rest());
  }
  in.Expect("w Bandwidth=");
  relay.bandwidth = in.Digits();
  if (in.Accept(" Measured=")) {
    relay.measured = in.Digits();
  }
  in.Expect("\n");
  in.Expect("p ");
  relay.exit_policy = memo.Get(in.Rest());
  in.Expect("m ");
  in.Hex(in.Rest(), relay.microdesc_digest);
}

// Serialized documents average well over 400 bytes per relay (see
// EstimateVoteSizeBytes); dividing by a slightly smaller figure reserves the
// relay vector once with a little headroom instead of growing it a dozen
// times while parsing.
void ScanRelays(Scanner& in, std::vector<RelayStatus>& relays) {
  relays.reserve(in.remaining() / 400 + 1);
  StringPool& pool = StringPool::Global();
  const FlagsTable& flags_table = FlagsTable::Get();
  InternMemo memo;
  while (in.Peek("r ")) {
    ScanRelay(in, pool, flags_table, memo, relays.emplace_back());
  }
}

// Backend that compares the writer's output with the scanned bytes instead
// of storing it.
struct MatchBackend {
  std::string_view expected;
  size_t matched = 0;  // leading bytes of `expected` the writer reproduced
  bool diverged = false;

  void Write(const char* data, size_t n) {
    if (diverged || n > expected.size() - matched ||
        std::memcmp(data, expected.data() + matched, n) != 0) {
      diverged = true;
      return;
    }
    matched += n;
  }
};

// Accepts the scanned document only if `write` renders exactly `text`.
template <typename WriteFn>
Status MatchWriter(std::string_view text, WriteFn write) {
  MatchBackend backend{text};
  BufferedTextSink<MatchBackend> sink(backend);
  write(sink);
  sink.Flush();
  if (backend.diverged || backend.matched != text.size()) {
    return Status::InvalidArgument("non-canonical encoding after offset " +
                                   std::to_string(backend.matched));
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeVote(const VoteDocument& vote) {
  std::string out;
  torbase::StringCursorSink sink(out, EstimateVoteSizeBytes(vote.relays.size()));
  WriteVote(sink, vote);
  sink.Finish();
  return out;
}

Result<VoteDocument> ParseVote(std::string_view text) {
  Scanner in(text);
  VoteDocument vote;
  in.Expect("network-status-version 3 vote\n");
  in.Expect("authority ");
  vote.authority_nickname = in.Word();
  vote.authority = static_cast<torbase::NodeId>(in.Number('\n'));
  ScanValidityLines(in, vote.valid_after, vote.fresh_until, vote.valid_until);
  in.Rest();  // known-flags: a constant line, checked by the writer
  ScanRelays(in, vote.relays);
  in.Expect("directory-footer\n");
  if (!in.ok()) {
    return in.Error();
  }
  if (Status s = MatchWriter(text, [&vote](auto& sink) { WriteVote(sink, vote); }); !s.ok()) {
    return s;
  }
  return vote;
}

torcrypto::Digest256 VoteDigest(const VoteDocument& vote) {
  torcrypto::Sha256 hash;
  DigestSinkBackend backend{hash};
  BufferedTextSink<DigestSinkBackend> sink(backend);
  WriteVote(sink, vote);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

torcrypto::Digest256 TreeVoteDigest(const VoteDocument& vote, torbase::ThreadPool* pool) {
  if (pool != nullptr) {
    // Parallel leaves need the whole byte string up front; the serializer runs
    // at multiple GiB/s, so materializing it is not the bottleneck.
    return torcrypto::Digest256(torcrypto::Sha256TreeDigest(SerializeVote(vote), pool));
  }
  torcrypto::Sha256TreeHasher hash;
  TreeDigestSinkBackend backend{hash};
  BufferedTextSink<TreeDigestSinkBackend> sink(backend);
  WriteVote(sink, vote);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

std::string SerializeConsensusUnsigned(const ConsensusDocument& consensus) {
  std::string out;
  torbase::StringCursorSink sink(out, EstimateVoteSizeBytes(consensus.relays.size()));
  WriteConsensusUnsigned(sink, consensus);
  sink.Finish();
  return out;
}

std::string SerializeConsensus(const ConsensusDocument& consensus) {
  std::string out;
  torbase::StringCursorSink sink(out, EstimateVoteSizeBytes(consensus.relays.size()) +
                                          consensus.signatures.size() * 160);
  WriteConsensusUnsigned(sink, consensus);
  WriteSignatureLines(sink, consensus.signatures);
  sink.Finish();
  return out;
}

Result<ConsensusDocument> ParseConsensus(const std::string& text) {
  Scanner in(text);
  ConsensusDocument consensus;
  in.Expect("network-status-version 3\n");
  in.Expect("vote-status consensus\n");
  consensus.vote_count = static_cast<uint32_t>(in.U64Line("votes-counted "));
  ScanValidityLines(in, consensus.valid_after, consensus.fresh_until, consensus.valid_until);
  ScanRelays(in, consensus.relays);
  in.Expect("directory-footer\n");
  while (!in.AtEnd()) {
    torcrypto::Signature& sig = consensus.signatures.emplace_back();
    in.Expect("directory-signature ");
    sig.signer = static_cast<torbase::NodeId>(in.Number(' '));
    in.Hex(in.Rest(), sig.bytes);
  }
  if (!in.ok()) {
    return in.Error();
  }
  if (Status s = MatchWriter(text,
                             [&consensus](auto& sink) {
                               WriteConsensusUnsigned(sink, consensus);
                               WriteSignatureLines(sink, consensus.signatures);
                             });
      !s.ok()) {
    return s;
  }
  return consensus;
}

torcrypto::Digest256 ConsensusDigest(const ConsensusDocument& consensus) {
  torcrypto::Sha256 hash;
  DigestSinkBackend backend{hash};
  BufferedTextSink<DigestSinkBackend> sink(backend);
  WriteConsensusUnsigned(sink, consensus);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

torcrypto::Digest256 TreeSignedConsensusDigest(const ConsensusDocument& consensus,
                                               torbase::ThreadPool* pool) {
  if (pool != nullptr) {
    return torcrypto::Digest256(torcrypto::Sha256TreeDigest(SerializeConsensus(consensus), pool));
  }
  torcrypto::Sha256TreeHasher hash;
  TreeDigestSinkBackend backend{hash};
  BufferedTextSink<TreeDigestSinkBackend> sink(backend);
  WriteConsensusUnsigned(sink, consensus);
  WriteSignatureLines(sink, consensus.signatures);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

void AppendConsensusHeaderText(std::string& out, const ConsensusDocument& consensus) {
  StringAppendBackend backend{out};
  BufferedTextSink<StringAppendBackend> sink(backend);
  WriteConsensusHeader(sink, consensus);
  sink.Flush();
}

void AppendRelayRowText(std::string& out, const RelayStatus& relay, bool include_measured) {
  StringAppendBackend backend{out};
  BufferedTextSink<StringAppendBackend> sink(backend);
  AppendRelay(sink, StringPool::Global(), FlagsTable::Get(), relay, include_measured);
  sink.Flush();
}

void AppendSignatureLinesText(std::string& out,
                              const std::vector<torcrypto::Signature>& signatures) {
  StringAppendBackend backend{out};
  BufferedTextSink<StringAppendBackend> sink(backend);
  WriteSignatureLines(sink, signatures);
  sink.Flush();
}

size_t EstimateVoteSizeBytes(size_t relay_count) {
  // Matches the serialization above: ~100 B "r" + ~40 B "s" + ~16 B "v" +
  // ~120 B "pr" + ~30 B "w" + ~20 B "p" + ~67 B "m" per relay (~390-405 B
  // measured on generator workloads), plus a small header/footer.
  // tests/tordir_test.cc pins the estimate to within 20% of the actual size
  // at 100/1k/8k relays, so drift in either direction fails loudly.
  return 170 + relay_count * 410;
}

}  // namespace tordir
