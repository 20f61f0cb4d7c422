#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace mosaic::util {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("a b"), "a b");
  EXPECT_EQ(trim("\v\f\rx\r\f\v"), "x");
  // Control bytes next to the whitespace range are kept.
  EXPECT_EQ(trim("\x08x\x0e"), "\x08x\x0e");
}

TEST(Split, BasicFields) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(Split, EmptyFieldsPreserved) {
  const auto fields = split(",a,,b,", ',');
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[4], "");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(StartsWith, Matches) {
  EXPECT_TRUE(starts_with("POSIX_OPENS", "POSIX"));
  EXPECT_FALSE(starts_with("POSIX", "POSIX_OPENS"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(ParseInt, ValidAndInvalid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int(" 7 "), 7);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("12.5").has_value());
}

TEST(ParseUint, RejectsNegative) {
  EXPECT_EQ(parse_uint("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_uint("-1").has_value());
}

TEST(ParseDouble, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*parse_double("42"), 42.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(FormatBytes, UnitsScale) {
  EXPECT_EQ(format_bytes(512.0), "512 B");
  EXPECT_EQ(format_bytes(1536.0), "1.50 KiB");
  EXPECT_EQ(format_bytes(1073741824.0), "1.00 GiB");
}

TEST(FormatDuration, Ranges) {
  EXPECT_EQ(format_duration(0.5), "500 ms");
  EXPECT_EQ(format_duration(12.34), "12.3 s");
  EXPECT_EQ(format_duration(125.0), "2m 05s");
  EXPECT_EQ(format_duration(7380.0), "2h 03m");
}

TEST(FormatPercent, OneDecimal) {
  EXPECT_EQ(format_percent(0.375), "37.5%");
  EXPECT_EQ(format_percent(1.0), "100.0%");
  EXPECT_EQ(format_percent(0.0), "0.0%");
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

}  // namespace
}  // namespace mosaic::util
