// Unit tests for src/common: bytes/hex, serialization, field lists, rng,
// stats, logging, table rendering and time formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/fields.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/time.h"

namespace torbase {
namespace {

TEST(BytesTest, HexEncodeLowerAndUpper) {
  const Bytes data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(HexEncode(data), "deadbeef007f");
  EXPECT_EQ(HexEncodeUpper(data), "DEADBEEF007F");
}

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xff, 0x10, 0xab};
  auto decoded = HexDecode(HexEncode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(BytesTest, HexDecodeAcceptsMixedCase) {
  auto decoded = HexDecode("DeAdBeEf");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(BytesTest, HexDecodeRejectsOddLength) { EXPECT_FALSE(HexDecode("abc").has_value()); }

TEST(BytesTest, HexDecodeRejectsNonHex) { EXPECT_FALSE(HexDecode("zz").has_value()); }

TEST(BytesTest, StringConversionRoundTrip) {
  const std::string s = "hello tor";
  EXPECT_EQ(StringOfBytes(BytesOfString(s)), s);
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing vote");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing vote");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, IntegerRoundTrip) {
  Writer w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteBool(true);
  w.WriteBool(false);

  Reader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 0xab);
  EXPECT_EQ(*r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789abcdefull);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_FALSE(*r.ReadBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, StringAndBytesRoundTrip) {
  Writer w;
  w.WriteString("consensus");
  w.WriteBytes(Bytes{9, 8, 7});

  Reader r(w.buffer());
  EXPECT_EQ(*r.ReadStringView(), "consensus");
  EXPECT_EQ(*r.ReadBytes(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, StringViewPointsIntoTheBuffer) {
  Writer w;
  w.WriteU8(7);
  w.WriteString("vote text");
  w.WriteString("second");
  const Bytes frame = w.TakeBuffer();

  Reader r(frame);
  ASSERT_TRUE(r.ReadU8().ok());
  const auto first = r.ReadStringView();
  const auto second = r.ReadStringView();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, "vote text");
  EXPECT_EQ(*second, "second");
  EXPECT_TRUE(r.AtEnd());
  // No copy: each view starts right after its length prefix in `frame`.
  const auto* base = reinterpret_cast<const char*>(frame.data());
  EXPECT_EQ(first->data(), base + 1 + 4);
  EXPECT_EQ(second->data(), base + 1 + 4 + first->size() + 4);
}

TEST(SerializeTest, StringViewRejectsTruncatedInput) {
  // The length prefix itself is cut short.
  const Bytes short_prefix = {5, 0};
  Reader prefix_reader(short_prefix);
  EXPECT_EQ(prefix_reader.ReadStringView().status().code(), StatusCode::kOutOfRange);

  // The length runs past the end of the buffer.
  Writer w;
  w.WriteU32(10);
  w.WriteRaw(Bytes{'a', 'b', 'c'});
  Reader overrun_reader(w.buffer());
  EXPECT_EQ(overrun_reader.ReadStringView().status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, TruncatedReadsFail) {
  Writer w;
  w.WriteU32(7);
  Reader r(w.buffer());
  EXPECT_TRUE(r.ReadU64().status().code() == StatusCode::kOutOfRange);
}

TEST(SerializeTest, TruncatedLengthPrefixFails) {
  Writer w;
  w.WriteU32(100);  // claims 100 bytes follow; none do
  Reader r(w.buffer());
  auto res = r.ReadBytes();
  EXPECT_FALSE(res.ok());
}

TEST(SerializeTest, EmptyString) {
  Writer w;
  w.WriteString("");
  Reader r(w.buffer());
  EXPECT_EQ(*r.ReadStringView(), "");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.UniformRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all 4 values hit over 500 draws
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalRoughMoments) {
  Rng rng(42);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(Mean(samples), 10.0, 0.1);
  EXPECT_NEAR(StdDev(samples), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  // Forking is deterministic: rebuilding the child from the parent's first
  // draw yields the same stream.
  Rng expected(Rng(5).NextU64());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child.NextU64(), expected.NextU64());
  }
  // And the forked child does not replay the parent's subsequent stream.
  Rng child2 = Rng(5).Fork();
  EXPECT_NE(child2.NextU64(), parent.NextU64());
}

TEST(RngTest, RandomBytesLengthAndDeterminism) {
  Rng a(11);
  Rng b(11);
  auto ba = a.RandomBytes(37);
  auto bb = b.RandomBytes(37);
  EXPECT_EQ(ba.size(), 37u);
  EXPECT_EQ(ba, bb);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(StatsTest, MedianLowOdd) { EXPECT_EQ(MedianLow({5, 1, 9}), 5u); }

TEST(StatsTest, MedianLowEvenTakesLower) { EXPECT_EQ(MedianLow({1, 2, 3, 4}), 2u); }

TEST(StatsTest, MedianEmpty) { EXPECT_EQ(MedianLow({}), 0u); }

TEST(StatsTest, MedianSingle) { EXPECT_EQ(MedianLow({42}), 42u); }

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 6.0);
}

TEST(StatsTest, FitLineExact) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {3, 5, 7, 9};  // y = 2x + 1
  auto fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(StatsTest, GrowthExponentQuadratic) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 4; x <= 64; x *= 2) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);
  }
  EXPECT_NEAR(GrowthExponent(xs, ys), 2.0, 1e-6);
}

TEST(TimeTest, UnitArithmetic) {
  EXPECT_EQ(Seconds(1), 1000 * Millis(1));
  EXPECT_EQ(Minutes(2), 120 * kSecond);
  EXPECT_EQ(Hours(1), 3600 * kSecond);
  EXPECT_DOUBLE_EQ(ToSeconds(Millis(1500)), 1.5);
}

TEST(TimeTest, FormatTime) {
  EXPECT_EQ(FormatTime(0), "00:00:00.000");
  EXPECT_EQ(FormatTime(Seconds(3661) + Millis(42)), "01:01:01.042");
}

TEST(LoggingTest, RecordsAndFormats) {
  Logger log("auth3");
  log.Notice(Seconds(90), "Time to fetch any votes that we're missing.");
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].Format(),
            "Jan 01 00:01:30.000 [notice] auth3: Time to fetch any votes that we're missing.");
}

TEST(LoggingTest, MinLevelFilters) {
  Logger log;
  log.set_min_level(LogLevel::kWarn);
  log.Info(0, "dropped");
  log.Warn(0, "kept");
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].message, "kept");
}

TEST(LoggingTest, ContainsSearchesMessages) {
  Logger log;
  log.Warn(0, "We don't have enough votes to generate a consensus: 4 of 5");
  EXPECT_TRUE(log.Contains("enough votes"));
  EXPECT_FALSE(log.Contains("absent"));
}

TEST(LoggingTest, CapacityEvictsOldest) {
  Logger log;
  log.set_capacity(2);
  log.Info(0, "a");
  log.Info(0, "b");
  log.Info(0, "c");
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].message, "b");
  EXPECT_EQ(log.records()[1].message, "c");
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"Relays", "Latency(s)"});
  t.AddRow({"1000", "3.20"});
  t.AddRow({"10000", "31.73"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Relays  Latency(s)"), std::string::npos);
  EXPECT_NE(out.find("10000"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, NumFormatsAndNan) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(std::nan(""), 2), "-");
  EXPECT_EQ(Table::Int(-7), "-7");
}

// --- field lists (fields.h) ----------------------------------------------------

struct Inner {
  double value = 0.0;
  std::shared_ptr<const std::string> text;

  auto Fields() const {
    const auto& [value, text] = *this;
    return std::tie(value, text);
  }
};

struct Outer {
  std::vector<Inner> inners;
  int count = 0;

  auto Fields() const {
    const auto& [inners, count] = *this;
    return std::tie(inners, count);
  }
};

TEST(FieldsTest, SameTreatsNanAsEqual) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(Same(nan, nan));
  EXPECT_FALSE(Same(nan, 1.0));
  EXPECT_TRUE(Same(Inner{nan, nullptr}, Inner{nan, nullptr}));
}

TEST(FieldsTest, SameComparesPointeesNotPointers) {
  const auto a = std::make_shared<const std::string>("doc");
  const auto b = std::make_shared<const std::string>("doc");
  EXPECT_TRUE(Same(a, b));  // distinct pointers, equal pointees
  EXPECT_FALSE(Same(a, std::make_shared<const std::string>("other")));
  EXPECT_FALSE(Same(a, std::shared_ptr<const std::string>()));
  EXPECT_FALSE(Same(std::shared_ptr<const std::string>(), a));
  EXPECT_TRUE(Same(std::shared_ptr<const std::string>(), std::shared_ptr<const std::string>()));
}

TEST(FieldsTest, SameWalksNestedFieldsAndVectors) {
  const Outer base{{Inner{1.0, std::make_shared<const std::string>("x")}}, 2};
  EXPECT_TRUE(Same(base, base));
  Outer longer = base;
  longer.inners.push_back(Inner{});
  EXPECT_FALSE(Same(base, longer));
  EXPECT_FALSE(Same(longer, base));
  Outer nested = base;
  nested.inners[0].text = std::make_shared<const std::string>("y");
  EXPECT_FALSE(Same(base, nested));
  Outer counted = base;
  counted.count = 3;
  EXPECT_FALSE(Same(base, counted));
}

template <typename T>
Bytes DescribeBytes(const T& value) {
  Writer writer;
  Describe(writer, value);
  return writer.TakeBuffer();
}

TEST(FieldsTest, DescribeIsPrefixFree) {
  // Without length prefixes both pairs would concatenate to the same bytes.
  EXPECT_NE(DescribeBytes(std::vector<std::string>{"ab", "c"}),
            DescribeBytes(std::vector<std::string>{"a", "bc"}));
  EXPECT_NE(DescribeBytes(std::vector<std::vector<int>>{{1}, {2}}),
            DescribeBytes(std::vector<std::vector<int>>{{1, 2}}));
  // A null pointer and a pointer to an empty value differ too.
  EXPECT_NE(DescribeBytes(std::shared_ptr<const std::string>()),
            DescribeBytes(std::make_shared<const std::string>()));
}

TEST(FieldsTest, DescribeWalksFieldsInOrder) {
  const Outer outer{{Inner{1.5, nullptr}}, 7};
  Writer expected;
  expected.WriteU64(1);  // inners.size()
  expected.WriteF64(1.5);
  expected.WriteBool(false);  // inners[0].text is null
  expected.WriteU64(7);
  EXPECT_EQ(DescribeBytes(outer), expected.buffer());
}

}  // namespace
}  // namespace torbase
