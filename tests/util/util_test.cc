#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/chart.h"
#include "src/util/check.h"
#include "src/util/date.h"
#include "src/util/decimal.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/str.h"
#include "src/util/table_printer.h"

namespace dfp {
namespace {

TEST(Hash, Crc32IsDeterministicAndSeedSensitive) {
  EXPECT_EQ(Crc32u64(0, 0x1234567890ABCDEFull), Crc32u64(0, 0x1234567890ABCDEFull));
  EXPECT_NE(Crc32u64(0, 1), Crc32u64(0, 2));
  EXPECT_NE(Crc32u64(1, 42), Crc32u64(2, 42));
}

TEST(Hash, Crc32ZeroOfZeroSeed) {
  // CRC of all-zero input with zero seed is zero for this table-driven implementation.
  EXPECT_EQ(Crc32u64(0, 0), 0u);
}

TEST(Hash, HashKeySpreadsHighBits) {
  // Directory indexing uses the hash's high bits (as the paper's generated code does with
  // `shr %11, 16`): sequential keys must land in many distinct buckets of a 1024-entry directory.
  std::set<uint64_t> buckets;
  for (uint64_t key = 0; key < 1000; ++key) {
    buckets.insert(HashKey(key) >> 54);
  }
  EXPECT_GT(buckets.size(), 550u);
}

TEST(Hash, HashCombineDiffersFromInputs) {
  uint64_t a = HashKey(1);
  uint64_t b = HashKey(2);
  EXPECT_NE(HashCombine(a, b), a);
  EXPECT_NE(HashCombine(a, b), b);
  EXPECT_NE(HashCombine(a, b), HashCombine(b, a));
}

TEST(Date, RoundTrip) {
  for (int year : {1970, 1992, 1998, 2000, 2024}) {
    for (int month : {1, 2, 6, 12}) {
      for (int day : {1, 15, 28}) {
        int32_t days = DateFromYmd(year, month, day);
        int y = 0;
        int m = 0;
        int d = 0;
        YmdFromDate(days, &y, &m, &d);
        EXPECT_EQ(y, year);
        EXPECT_EQ(m, month);
        EXPECT_EQ(d, day);
      }
    }
  }
}

TEST(Date, EpochIsZero) { EXPECT_EQ(DateFromYmd(1970, 1, 1), 0); }

TEST(Date, ParseAndFormat) {
  EXPECT_EQ(DateToString(ParseDate("1995-04-01")), "1995-04-01");
  EXPECT_LT(ParseDate("1995-03-31"), ParseDate("1995-04-01"));
  EXPECT_THROW(ParseDate("not-a-date"), Error);
  EXPECT_THROW(ParseDate("1995-13-01"), Error);
}

TEST(Decimal, Arithmetic) {
  int64_t a = MakeDecimal(12, 34);  // 12.34
  int64_t b = MakeDecimal(2, 0);    // 2.00
  EXPECT_EQ(DecimalToString(a), "12.34");
  EXPECT_EQ(DecimalMul(a, b), MakeDecimal(24, 68));
  EXPECT_EQ(DecimalDiv(a, b), MakeDecimal(6, 17));
  EXPECT_EQ(DecimalToString(MakeDecimal(-3, 5)), "-3.05");
  EXPECT_DOUBLE_EQ(DecimalToDouble(a), 12.34);
}

TEST(Random, DeterministicPerSeed) {
  Random a(42);
  Random b(42);
  Random c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Random, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Random, AlphaStringHasRequestedLength) {
  Random rng(7);
  EXPECT_EQ(rng.AlphaString(12).size(), 12u);
  for (char c : rng.AlphaString(64)) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(Str, LikeMatch) {
  EXPECT_TRUE(LikeMatch("chip", "chip"));
  EXPECT_TRUE(LikeMatch("microchip", "%chip"));
  EXPECT_TRUE(LikeMatch("chipset", "chip%"));
  EXPECT_TRUE(LikeMatch("a chip here", "%chip%"));
  EXPECT_TRUE(LikeMatch("chap", "ch_p"));
  EXPECT_FALSE(LikeMatch("chop", "chip"));
  EXPECT_FALSE(LikeMatch("chi", "chip%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
}

TEST(Str, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(PercentString(0.123), "12.3%");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(Str, HexU64IsSixteenLowercaseDigitsAndParsesBack) {
  EXPECT_EQ(HexU64(0), "0000000000000000");
  EXPECT_EQ(HexU64(0xABCDEF), "0000000000abcdef");
  EXPECT_EQ(HexU64(~0ull), "ffffffffffffffff");
  for (uint64_t value :
       {0ull, 1ull, 0x42ull, 0x8000000000000000ull, 0x0123456789abcdefull, ~0ull}) {
    EXPECT_EQ(ParseHexU64(HexU64(value), "line"), value) << value;
  }
}

TEST(Str, ParseHexU64RejectsAnythingButSixteenLowercaseDigits) {
  // Each of these once read as a number, threw a std:: exception, or stopped at its first bad
  // digit; every one must fail as dfp::Error naming the token and its line.
  const std::vector<std::string> bad = {
      "",                   // Empty.
      "zz",                 // No hex digit at all.
      "12xyz",              // Hex prefix, then junk.
      "000000000000000",    // 15 digits.
      "00000000000000042",  // 17 digits.
      "000000000000004G",   // Non-hex digit in the last place.
      "00000000000000AB",   // Uppercase.
      "-000000000000001",   // Sign.
      " 000000000000001",   // Leading blank.
      "0x00000000000001",   // Prefix.
  };
  for (const std::string& token : bad) {
    try {
      ParseHexU64(token, "plan " + token + " q");
      ADD_FAILURE() << "accepted '" << token << "'";
    } catch (const Error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("'" + token + "'"), std::string::npos) << message;
      EXPECT_NE(message.find("plan " + token + " q"), std::string::npos) << message;
    }
  }
}

TEST(Str, CheckFormatHeaderNamesTheVersionFound) {
  EXPECT_NO_THROW(CheckFormatHeader("# dfp widgets v3", "# dfp widgets v", 3, "dfp widgets"));
  for (const std::string& found : {"1", "2", "4", "30", "", "3 ", "3x"}) {
    try {
      CheckFormatHeader("# dfp widgets v" + found, "# dfp widgets v", 3, "dfp widgets");
      ADD_FAILURE() << "accepted v" << found;
    } catch (const Error& error) {
      EXPECT_EQ(std::string(error.what()), "dfp widgets file has version v" + found +
                                               " but this build reads only v3: regenerate with "
                                               "this build");
    }
  }
  for (const std::string& header : {"", "# dfp gadgets v3", "# dfp widget v3", "dfp widgets v3"}) {
    try {
      CheckFormatHeader(header, "# dfp widgets v", 3, "dfp widgets");
      ADD_FAILURE() << "accepted '" << header << "'";
    } catch (const Error& error) {
      EXPECT_EQ(std::string(error.what()), "not a dfp widgets file") << header;
    }
  }
}

TEST(Str, FieldStreamRejectsNegativeUnsignedFields) {
  // A plain istream reads "-1" into an unsigned field as the type's maximum.
  {
    std::istringstream plain("-1");
    uint32_t value = 0;
    ASSERT_TRUE(static_cast<bool>(plain >> value));
    EXPECT_EQ(value, 4294967295u);
  }
  {
    std::istringstream stream = FieldStream("7 -1");
    uint32_t first = 0;
    uint32_t second = 0;
    EXPECT_TRUE(static_cast<bool>(stream >> first));
    EXPECT_EQ(first, 7u);
    EXPECT_FALSE(static_cast<bool>(stream >> second));
  }
  for (const char* line : {"-1", " -0", "-18446744073709551615"}) {
    uint16_t u16 = 0;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    size_t size = 0;
    unsigned long long ull = 0;
    std::istringstream a = FieldStream(line);
    std::istringstream b = FieldStream(line);
    std::istringstream c = FieldStream(line);
    std::istringstream d = FieldStream(line);
    std::istringstream e = FieldStream(line);
    EXPECT_FALSE(static_cast<bool>(a >> u16)) << line;
    EXPECT_FALSE(static_cast<bool>(b >> u32)) << line;
    EXPECT_FALSE(static_cast<bool>(c >> u64)) << line;
    EXPECT_FALSE(static_cast<bool>(d >> size)) << line;
    EXPECT_FALSE(static_cast<bool>(e >> ull)) << line;
  }
  // Signed and floating fields, words, and unsigned fields without a sign read as before.
  std::istringstream stream = FieldStream("  -5 -2.5 word 18446744073709551615 +3 -1");
  int64_t i64 = 0;
  double real = 0;
  std::string word;
  uint64_t big = 0;
  uint32_t plus = 0;
  int negative = 0;
  ASSERT_TRUE(static_cast<bool>(stream >> i64 >> real >> word >> big >> plus >> negative));
  EXPECT_EQ(i64, -5);
  EXPECT_EQ(real, -2.5);
  EXPECT_EQ(word, "word");
  EXPECT_EQ(big, ~0ull);
  EXPECT_EQ(plus, 3u);
  EXPECT_EQ(negative, -1);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter printer({"name", "value"});
  printer.SetRightAlign(1, true);
  printer.AddRow({"a", "1"});
  printer.AddRow({"long-name", "12345"});
  std::string out = printer.Render();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  // Right-aligned numbers end at the same column.
  EXPECT_NE(out.find("    1\n"), std::string::npos);
}

TEST(Chart, BarChartRendersAllEntries) {
  std::string out = RenderBarChart({{"join", 0.58}, {"scan", 0.04}}, 30);
  EXPECT_NE(out.find("join"), std::string::npos);
  EXPECT_NE(out.find("58.0%"), std::string::npos);
  EXPECT_NE(out.find("scan"), std::string::npos);
}

TEST(Chart, ScatterPlotBounds) {
  ScatterPlot plot;
  plot.x_max = 10;
  plot.y_max = 10;
  plot.points = {{0, 0}, {9.9, 9.9}, {5, 5}};
  std::string out = RenderScatterPlot(plot);
  EXPECT_NE(out.find('.'), std::string::npos);
}

}  // namespace
}  // namespace dfp
