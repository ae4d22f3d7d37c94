// Binary serialization used for protocol wire messages. Fixed-width little-endian
// integers plus length-prefixed byte strings; a Writer builds a buffer and a
// Reader consumes one with explicit bounds checking (no exceptions, no UB on
// truncated input).
#ifndef SRC_COMMON_SERIALIZE_H_
#define SRC_COMMON_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace torbase {

class Writer {
 public:
  Writer() = default;

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  // IEEE-754 bit pattern as a little-endian u64. Canonical descriptions
  // (spec_digest) need doubles to round-trip exactly; the wire protocols
  // themselves stay integer-only.
  void WriteF64(double v);
  void WriteBool(bool v);
  // Length-prefixed (u32) byte string.
  void WriteBytes(std::span<const uint8_t> data);
  // Length-prefixed (u32) character string.
  void WriteString(std::string_view s);
  // Raw bytes with no length prefix (caller knows the framing).
  void WriteRaw(std::span<const uint8_t> data);

  // Pre-sizes the buffer for `additional` more bytes. Callers framing a
  // multi-megabyte payload (vote posts, document fetch responses) reserve
  // once instead of paying repeated geometric regrowth copies.
  void Reserve(size_t additional) { buffer_.reserve(buffer_.size() + additional); }

  const Bytes& buffer() const { return buffer_; }
  Bytes TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

// --- text sinks --------------------------------------------------------------
// Streaming text output for the dir-spec codec: a fixed stack buffer in front
// of an arbitrary byte consumer. The serializer formats every field with
// inline appends into the buffer (no per-field std::string temporaries) and
// the backend sees large contiguous ~16 KB chunks — the codec's Sha256
// backend digests whole blocks without ever materializing the multi-megabyte
// document. String output uses StringCursorSink below instead (same
// interface, no bounce buffer).
//
// Backend contract: `void Write(const char* data, size_t n)`. The sink is
// move-free and lives on the caller's stack; call Flush() (or let the
// destructor do it) before reading the backend's result.
template <typename Backend>
class BufferedTextSink {
 public:
  // Upper bound a Scratch() caller may request; sized so a whole serialized
  // relay row (fixed text plus realistic variable-width strings) composes in
  // one block.
  static constexpr size_t kScratchMax = 1024;

  explicit BufferedTextSink(Backend& backend) : backend_(backend) {}
  ~BufferedTextSink() { Flush(); }

  BufferedTextSink(const BufferedTextSink&) = delete;
  BufferedTextSink& operator=(const BufferedTextSink&) = delete;

  void Append(std::string_view s) {
    if (s.empty()) {
      return;  // also sidesteps memcpy from a null data() pointer
    }
    if (s.size() > kCapacity - used_) {
      Flush();
      if (s.size() > kCapacity) {
        backend_.Write(s.data(), s.size());  // oversized: bypass the buffer
        return;
      }
    }
    __builtin_memcpy(buffer_ + used_, s.data(), s.size());
    used_ += s.size();
  }

  void Push(char c) {
    if (used_ == kCapacity) {
      Flush();
    }
    buffer_[used_++] = c;
  }

  // Returns a pointer with at least `n` (<= kScratchMax) writable chars;
  // Commit() the number actually written.
  char* Scratch(size_t n) {
    if (n > kCapacity - used_) {
      Flush();
    }
    return buffer_ + used_;
  }
  void Commit(size_t n) { used_ += n; }

  void Flush() {
    if (used_ > 0) {
      backend_.Write(buffer_, used_);
      used_ = 0;
    }
  }

 private:
  static constexpr size_t kCapacity = 16384;
  static_assert(kScratchMax <= kCapacity);

  Backend& backend_;
  size_t used_ = 0;
  char buffer_[kCapacity];
};

// Cursor sink writing straight into a pre-sized std::string — same interface
// as BufferedTextSink, no intermediate buffer and no flush copy. The string is
// resized to `size_hint` once (its fill cost is the price of skipping the
// bounce copy; callers pass a calibrated document-size estimate), grown
// geometrically on underestimates, and trimmed by Finish().
class StringCursorSink {
 public:
  static constexpr size_t kScratchMax = 1024;

  StringCursorSink(std::string& out, size_t size_hint) : out_(out) {
    Resize(size_hint > kScratchMax ? size_hint : kScratchMax);
    cursor_ = out_.data();
  }

  void Append(std::string_view s) {
    if (s.empty()) {
      return;
    }
    Ensure(s.size());
    __builtin_memcpy(cursor_, s.data(), s.size());
    cursor_ += s.size();
  }

  void Push(char c) {
    Ensure(1);
    *cursor_++ = c;
  }

  char* Scratch(size_t n) {
    Ensure(n);
    return cursor_;
  }
  void Commit(size_t n) { cursor_ += n; }

  void Flush() {}  // writes are already in place

  // Trims the string to the bytes actually written. Required before use;
  // the sink must not be written to afterwards.
  void Finish() {
    out_.resize(static_cast<size_t>(cursor_ - out_.data()));
  }

 private:
  // Sizes the string without zero-filling when the library allows it; every
  // byte up to Finish()'s cursor is overwritten by the serializer before the
  // caller can observe it.
  void Resize(size_t n) {
#ifdef __cpp_lib_string_resize_and_overwrite
    out_.resize_and_overwrite(n, [](char*, size_t count) { return count; });
#else
    out_.resize(n);
#endif
  }
  void Ensure(size_t n) {
    if (static_cast<size_t>(out_.data() + out_.size() - cursor_) < n) {
      Grow(n);
    }
  }
  void Grow(size_t n) {
    const size_t used = static_cast<size_t>(cursor_ - out_.data());
    size_t grown = out_.size() * 2;
    if (grown < used + n) {
      grown = used + n + kScratchMax;
    }
    Resize(grown);
    cursor_ = out_.data() + used;
  }

  std::string& out_;
  char* cursor_ = nullptr;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}
  // A Reader only views the buffer; constructing one over a temporary would
  // leave the span dangling.
  explicit Reader(Bytes&&) = delete;

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<bool> ReadBool();
  Result<Bytes> ReadBytes();
  // Length-prefixed (u32) character string, as a view into the buffer: no
  // copy. The view is valid only as long as the buffer is — for a received
  // frame, until the message handler returns.
  Result<std::string_view> ReadStringView();
  // Reads exactly n raw bytes.
  Result<Bytes> ReadRaw(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace torbase

#endif  // SRC_COMMON_SERIALIZE_H_
