// The scatter-gather frame layer (src/common/serialize.h): a Frame is its
// wire bytes, Flatten(), and a Reader over it reads exactly what a Reader over
// those bytes reads — except that a WriteShared body comes back as a view of
// the shared text itself. The property test drives random write mixes
// (empty texts, adjacent shared strings) and random read sequences, over the
// frames our writers build and over hand-built frames whose splice points
// fall inside reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"

namespace torbase {
namespace {

using SharedText = std::shared_ptr<const std::string>;

SharedText Text(std::string s) { return std::make_shared<const std::string>(std::move(s)); }

// One write of a random mix, applied to a segmenting writer and to a flat one.
struct Write {
  enum Kind { kU8, kU32, kU64, kString, kShared } kind;
  uint64_t value = 0;
  SharedText text;
};

std::vector<Write> RandomWrites(Rng& rng) {
  std::vector<Write> writes(rng.UniformRange(0, 12));
  for (Write& write : writes) {
    write.kind = static_cast<Write::Kind>(rng.UniformU64(5));
    write.value = rng.NextU64();
    // Empty texts are common on purpose, and a shared string often follows a
    // shared string.
    write.text = Text(rng.Bernoulli(0.25) ? "" : rng.AlphaNumeric(rng.UniformRange(1, 24)));
  }
  return writes;
}

void Apply(const std::vector<Write>& writes, Writer& w, bool share) {
  for (const Write& write : writes) {
    switch (write.kind) {
      case Write::kU8:
        w.WriteU8(static_cast<uint8_t>(write.value));
        break;
      case Write::kU32:
        w.WriteU32(static_cast<uint32_t>(write.value));
        break;
      case Write::kU64:
        w.WriteU64(write.value);
        break;
      case Write::kString:
        w.WriteString(*write.text);
        break;
      case Write::kShared:
        if (share) {
          w.WriteShared(write.text);
        } else {
          w.WriteString(*write.text);
        }
        break;
    }
  }
}

// `flat` cut into a frame whose segments are random slices of it, so splice
// points land anywhere, inside integers and length prefixes included.
Frame CutUp(const Bytes& flat, Rng& rng) {
  Frame frame;
  size_t pos = 0;
  while (pos < flat.size()) {
    const size_t inline_bytes = rng.UniformRange(0, flat.size() - pos);
    frame.head.insert(frame.head.end(), flat.begin() + static_cast<ptrdiff_t>(pos),
                      flat.begin() + static_cast<ptrdiff_t>(pos + inline_bytes));
    pos += inline_bytes;
    const size_t text_bytes = rng.UniformRange(0, flat.size() - pos);
    frame.segments.push_back(Frame::Segment{
        frame.head.size(),
        Text(std::string(flat.begin() + static_cast<ptrdiff_t>(pos),
                         flat.begin() + static_cast<ptrdiff_t>(pos + text_bytes)))});
    pos += text_bytes;
  }
  return frame;
}

template <typename T>
std::string Describe(const Result<T>& result) {
  if (!result.ok()) {
    return "error " + result.status().ToString();
  }
  if constexpr (std::is_same_v<T, std::string_view>) {
    return "view " + std::string(*result);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return "bytes " + HexEncode(*result);
  } else {
    return "value " + std::to_string(*result);
  }
}

// One read of kind `kind` (raw reads take `n` bytes), described with the
// reader's state after it.
std::string ReadOnce(Reader& r, uint64_t kind, size_t n) {
  std::string out;
  switch (kind) {
    case 0:
      out = Describe(r.ReadU8());
      break;
    case 1:
      out = Describe(r.ReadBool());
      break;
    case 2:
      out = Describe(r.ReadU32());
      break;
    case 3:
      out = Describe(r.ReadU64());
      break;
    case 4:
      out = Describe(r.ReadStringView());
      break;
    case 5:
      out = Describe(r.ReadBytes());
      break;
    default:
      out = Describe(r.ReadRaw(n));
      break;
  }
  return out + " / remaining " + std::to_string(r.remaining()) + (r.AtEnd() ? " at end" : "");
}

// Reads `frame` and `flat` in lock step: the read that mirrors each write,
// with a random read in its place now and then, until both are at the end.
void ExpectSameReads(const Frame& frame, const Bytes& flat, const std::vector<Write>& writes,
                     Rng& rng) {
  Reader segmented(frame);
  Reader contiguous(flat);
  ASSERT_EQ(segmented.remaining(), flat.size());
  ASSERT_EQ(segmented.AtEnd(), contiguous.AtEnd());
  for (size_t step = 0; step < writes.size() + 3; ++step) {
    uint64_t kind = rng.UniformU64(7);
    if (step < writes.size() && rng.Bernoulli(0.8)) {
      static constexpr uint64_t kMirror[] = {0, 2, 3, 4, 4};
      kind = kMirror[writes[step].kind];
    }
    const size_t n = rng.UniformRange(0, 12);
    ASSERT_EQ(ReadOnce(segmented, kind, n), ReadOnce(contiguous, kind, n)) << "step " << step;
  }
}

TEST(FrameTest, ReadsOverAFrameMatchReadsOverItsFlattenedBytes) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<Write> writes = RandomWrites(rng);
    Writer segmenting;
    Apply(writes, segmenting, true);
    Writer flat_writer;
    Apply(writes, flat_writer, false);
    const Frame frame = segmenting.TakeFrame();
    const Bytes flat = flat_writer.TakeBuffer();
    ASSERT_EQ(frame.Flatten(), flat);
    ASSERT_EQ(frame.size(), flat.size());

    ExpectSameReads(frame, flat, writes, rng);
    // The same bytes with splice points anywhere: reads straddle them.
    const Frame cut = CutUp(flat, rng);
    ASSERT_EQ(cut.Flatten(), flat);
    ExpectSameReads(cut, flat, writes, rng);
  }
}

TEST(FrameTest, SharedStringReadsBackAsAViewOfTheTextItself) {
  const SharedText vote = Text("network-status-version 3\nvote-status vote\n");
  const SharedText empty = Text("");
  Writer w;
  w.WriteU8(1);
  w.WriteShared(vote);
  w.WriteShared(empty);
  w.WriteShared(vote);
  w.WriteU32(7);
  const Frame frame = w.TakeFrame();
  ASSERT_EQ(frame.segments.size(), 3u);
  EXPECT_EQ(frame.head.size(), 1u + 3 * 4 + 4);

  Reader r(frame);
  ASSERT_TRUE(r.ReadU8().ok());
  const auto first = r.ReadStringView();
  const auto second = r.ReadStringView();
  const auto third = r.ReadStringView();
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(first->data(), vote->data());
  EXPECT_EQ(second->data(), empty->data());
  EXPECT_EQ(third->data(), vote->data());
  EXPECT_EQ(*first, *vote);
  EXPECT_EQ(*r.ReadU32(), 7u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(FrameTest, AStraddlingReadFlattensAndEarlierViewsStayValid) {
  const SharedText text = Text("abcdef");
  Writer w;
  w.WriteShared(text);
  Frame frame = w.TakeFrame();
  // Hand-built: a second length prefix whose body is a two-byte segment plus
  // the two inline bytes after it.
  frame.head.insert(frame.head.end(), {4, 0, 0, 0});
  frame.segments.push_back(Frame::Segment{frame.head.size(), Text("xy")});
  frame.head.insert(frame.head.end(), {'z', 'w'});

  Reader r(frame);
  const auto segment = r.ReadStringView();
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(segment->data(), text->data());
  const auto straddling = r.ReadStringView();
  ASSERT_TRUE(straddling.ok());
  EXPECT_EQ(*straddling, "xyzw");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*segment, "abcdef");
}

}  // namespace
}  // namespace torbase
