#include "src/common/serialize.h"

namespace torbase {

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

void Writer::WriteRaw(std::span<const uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Status Reader::Need(size_t n) {
  if (pos_ + n > data_.size()) {
    return Status::OutOfRange("truncated input: need " + std::to_string(n) + " bytes, have " +
                              std::to_string(data_.size() - pos_));
  }
  return Status::Ok();
}

Result<uint8_t> Reader::ReadU8() {
  if (Status s = Need(1); !s.ok()) {
    return s;
  }
  return data_[pos_++];
}

Result<uint32_t> Reader::ReadU32() {
  if (Status s = Need(4); !s.ok()) {
    return s;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::ReadU64() {
  if (Status s = Need(8); !s.ok()) {
    return s;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
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
  if (Status s = Need(*len); !s.ok()) {
    return s;
  }
  const std::string_view view(reinterpret_cast<const char*>(data_.data()) + pos_, *len);
  pos_ += *len;
  return view;
}

Result<Bytes> Reader::ReadRaw(size_t n) {
  if (Status s = Need(n); !s.ok()) {
    return s;
  }
  Bytes out(data_.begin() + static_cast<ptrdiff_t>(pos_),
            data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace torbase
