#include "src/common/serialize.h"

#include <cassert>

namespace torbase {

size_t Frame::size() const {
  size_t total = head.size();
  for (const Segment& segment : segments) {
    total += segment.text->size();
  }
  return total;
}

Bytes Frame::Flatten() const {
  Bytes out;
  out.reserve(size());
  size_t copied = 0;
  for (const Segment& segment : segments) {
    out.insert(out.end(), head.begin() + static_cast<ptrdiff_t>(copied),
               head.begin() + static_cast<ptrdiff_t>(segment.at));
    out.insert(out.end(), segment.text->begin(), segment.text->end());
    copied = segment.at;
  }
  out.insert(out.end(), head.begin() + static_cast<ptrdiff_t>(copied), head.end());
  return out;
}

void Writer::WriteU8(uint8_t v) { buffer_.push_back(v); }

void Writer::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::WriteF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Writer::WriteBool(bool v) { WriteU8(v ? 1 : 0); }

void Writer::WriteBytes(std::span<const uint8_t> data) {
  WriteU32(static_cast<uint32_t>(data.size()));
  WriteRaw(data);
}

void Writer::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::WriteShared(std::shared_ptr<const std::string> text) {
  WriteU32(static_cast<uint32_t>(text->size()));
  segments_.push_back(Frame::Segment{buffer_.size(), std::move(text)});
}

void Writer::WriteRaw(std::span<const uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Bytes Writer::TakeBuffer() {
  assert(segments_.empty() && "a writer holding shared segments is read out with TakeFrame");
  return std::move(buffer_);
}

Frame Writer::TakeFrame() {
  Frame frame(std::move(buffer_));
  frame.segments.swap(segments_);
  return frame;
}

Reader::Reader(const Frame& frame) : data_(frame.head) {
  if (!frame.segments.empty()) {
    frame_ = &frame;
    segment_bytes_ = frame.size() - frame.head.size();
  }
}

Status Reader::Need(size_t n) {
  if (n > remaining()) {
    return Status::OutOfRange("truncated input: need " + std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
  }
  return Status::Ok();
}

Result<std::span<const uint8_t>> Reader::Take(size_t n) {
  if (Status s = Need(n); !s.ok()) {
    return s;
  }
  if (frame_ != nullptr && next_ < frame_->segments.size()) {
    const Frame::Segment& segment = frame_->segments[next_];
    if (segment.at == pos_ && segment.text->size() == n) {
      ++next_;
      segment_bytes_ -= n;
      return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(segment.text->data()), n);
    }
    if (pos_ + n > segment.at) {
      Spill();
    }
  }
  const std::span<const uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Reader::Spill() {
  for (size_t i = 0; i < next_; ++i) {
    pos_ += frame_->segments[i].text->size();
  }
  spilled_ = frame_->Flatten();
  data_ = spilled_;
  frame_ = nullptr;
  next_ = 0;
  segment_bytes_ = 0;
}

Result<uint8_t> Reader::ReadU8() {
  auto bytes = Take(1);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return (*bytes)[0];
}

Result<uint32_t> Reader::ReadU32() {
  auto bytes = Take(4);
  if (!bytes.ok()) {
    return bytes.status();
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>((*bytes)[i]) << (8 * i);
  }
  return v;
}

Result<uint64_t> Reader::ReadU64() {
  auto bytes = Take(8);
  if (!bytes.ok()) {
    return bytes.status();
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>((*bytes)[i]) << (8 * i);
  }
  return v;
}

Result<bool> Reader::ReadBool() {
  auto v = ReadU8();
  if (!v.ok()) {
    return v.status();
  }
  return *v != 0;
}

Result<Bytes> Reader::ReadBytes() {
  auto len = ReadU32();
  if (!len.ok()) {
    return len.status();
  }
  return ReadRaw(*len);
}

Result<std::string_view> Reader::ReadStringView() {
  auto len = ReadU32();
  if (!len.ok()) {
    return len.status();
  }
  auto bytes = Take(*len);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return std::string_view(reinterpret_cast<const char*>(bytes->data()), bytes->size());
}

Result<Bytes> Reader::ReadRaw(size_t n) {
  auto bytes = Take(n);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return Bytes(bytes->begin(), bytes->end());
}

}  // namespace torbase
