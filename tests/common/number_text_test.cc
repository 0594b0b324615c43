// The number codec's rule: whole tokens only, decimal or exponent form with
// an optional leading '-', no '+', hex or whitespace, out of range rejected
// (never wrapped), and shortest round-trip formatting.

#include "bagcpd/common/number_text.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

namespace bagcpd {
namespace {

TEST(NumberTextTest, ParseDoubleReadsWholeDecimalTokens) {
  const struct {
    const char* text;
    double value;
  } kCases[] = {{"0", 0.0},        {"-0", -0.0},      {"1.5", 1.5},
                {"-2.5e-3", -2.5e-3}, {"1e+5", 1e5}, {"1E5", 1e5},
                {".5", 0.5},       {"5.", 5.0},       {"4.9e-324", 4.9e-324}};
  for (const auto& c : kCases) {
    double v = 7.0;
    ASSERT_EQ(ParseDouble(c.text, &v), NumberParse::kOk) << c.text;
    EXPECT_EQ(std::memcmp(&v, &c.value, sizeof(v)), 0) << c.text;
  }
  double v = 0.0;
  ASSERT_EQ(ParseDouble("inf", &v), NumberParse::kOk);
  EXPECT_TRUE(std::isinf(v));
  ASSERT_EQ(ParseDouble("nan", &v), NumberParse::kOk);
  EXPECT_TRUE(std::isnan(v));
}

TEST(NumberTextTest, ParseDoubleRejectsEverythingElseAndLeavesOutAlone) {
  for (const char* text : {"", "+1", " 1", "1 ", "\t1", "0x10", "0x1p-1",
                           "1,5", "--1", "1e", "e5", "-", ".", "1.5x"}) {
    double v = 7.0;
    EXPECT_EQ(ParseDouble(text, &v), NumberParse::kMalformed) << text;
    EXPECT_EQ(v, 7.0) << text;
  }
  double v = 7.0;
  EXPECT_EQ(ParseDouble("1e400", &v), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseDouble("-1e400", &v), NumberParse::kOutOfRange);
  EXPECT_EQ(v, 7.0);
}

TEST(NumberTextTest, IntegersAreRangeCheckedNeverWrapped) {
  std::int64_t i = 7;
  EXPECT_EQ(ParseInt64("-9223372036854775808", &i), NumberParse::kOk);
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(ParseInt64("9223372036854775807", &i), NumberParse::kOk);
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ParseInt64("9223372036854775808", &i), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseInt64("-9223372036854775809", &i), NumberParse::kOutOfRange);
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::max());
  for (const char* text : {"", "+1", " 1", "1 ", "0x10", "1.0", "1e3", "-"}) {
    EXPECT_EQ(ParseInt64(text, &i), NumberParse::kMalformed) << text;
  }

  std::uint64_t u = 7;
  EXPECT_EQ(ParseUint64("18446744073709551615", &u), NumberParse::kOk);
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ParseUint64("18446744073709551616", &u), NumberParse::kOutOfRange);
  EXPECT_EQ(ParseUint64("18446744073709551617", &u), NumberParse::kOutOfRange);
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  for (const char* text : {"", "-1", "-0", "+1", " 1", "1 ", "0x10", "1.0"}) {
    EXPECT_EQ(ParseUint64(text, &u), NumberParse::kMalformed) << text;
  }
}

TEST(NumberTextTest, FormatIsShortestAndRoundTripsBitwise) {
  EXPECT_EQ(FormatDoubleShortest(0.1), "0.1");
  EXPECT_EQ(FormatDoubleShortest(-0.0), "-0");
  EXPECT_EQ(FormatDoubleShortest(1e300), "1e+300");
  EXPECT_EQ(FormatDoubleShortest(0.05), "0.05");
  for (const double v :
       {0.0, -0.0, 0.1, 1.0 / 3.0, -2.5, 12345.678901234567, 1e-300,
        4.9e-324, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max()}) {
    double back = 0.0;
    ASSERT_EQ(ParseDouble(FormatDoubleShortest(v), &back), NumberParse::kOk)
        << FormatDoubleShortest(v);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << FormatDoubleShortest(v);
  }
}

TEST(NumberTextTest, ClassicLocaleFallbackFormatsLikeToChars) {
  // FormatDoubleShortest is std::to_chars where the standard library has
  // it; the fallback must write the same bytes.
  EXPECT_EQ(FormatDoubleShortest(1e-4), "1e-04");
  EXPECT_EQ(FormatDoubleShortest(1e21), "1e+21");
  EXPECT_EQ(FormatDoubleShortest(123456.0), "123456");
  for (const double v : {1e-4, 1e21, 5e-324, -0.0, 0.1, 123456.0, 1e5, 1e-3,
                         0x1p63, 1.2345678901234567e20, -1e100}) {
    EXPECT_EQ(internal::FormatDoubleShortestClassic(v),
              FormatDoubleShortest(v))
        << FormatDoubleShortest(v);
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 10000; ++i) {
    // splitmix64: every bit pattern, NaNs and infinities included.
    std::uint64_t bits = (state += 0x9E3779B97F4A7C15ull);
    bits = (bits ^ (bits >> 30)) * 0xBF58476D1CE4E5B9ull;
    bits = (bits ^ (bits >> 27)) * 0x94D049BB133111EBull;
    bits ^= bits >> 31;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    ASSERT_EQ(internal::FormatDoubleShortestClassic(v),
              FormatDoubleShortest(v))
        << std::hex << bits;
  }
}

}  // namespace
}  // namespace bagcpd
