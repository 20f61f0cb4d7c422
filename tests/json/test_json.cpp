#include "json/json.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "json/reader.hpp"

namespace mosaic::json {
namespace {

TEST(Value, TypePredicates) {
  EXPECT_TRUE(Value{}.is_null());
  EXPECT_TRUE(Value{nullptr}.is_null());
  EXPECT_TRUE(Value{true}.is_bool());
  EXPECT_TRUE(Value{1.5}.is_number());
  EXPECT_TRUE(Value{42}.is_number());
  EXPECT_TRUE(Value{"text"}.is_string());
  EXPECT_TRUE(Value{Array{}}.is_array());
  EXPECT_TRUE(Value{Object{}}.is_object());
}

TEST(Object, InsertionOrderPreserved) {
  Object object;
  object.set("zebra", 1);
  object.set("apple", 2);
  object.set("mango", 3);
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object.entries()[0].first, "zebra");
  EXPECT_EQ(object.entries()[1].first, "apple");
  EXPECT_EQ(object.entries()[2].first, "mango");
}

TEST(Object, OverwriteKeepsPosition) {
  Object object;
  object.set("a", 1);
  object.set("b", 2);
  object.set("a", 99);
  ASSERT_EQ(object.size(), 2u);
  EXPECT_EQ(object.entries()[0].first, "a");
  EXPECT_DOUBLE_EQ(object.entries()[0].second.as_number(), 99.0);
}

TEST(Object, FindAndContains) {
  Object object;
  object.set("key", "value");
  EXPECT_TRUE(object.contains("key"));
  EXPECT_FALSE(object.contains("other"));
  ASSERT_NE(object.find("key"), nullptr);
  EXPECT_EQ(object.find("key")->as_string(), "value");
  EXPECT_EQ(object.find("other"), nullptr);
}

TEST(Serialize, Scalars) {
  EXPECT_EQ(serialize(Value{nullptr}, false), "null");
  EXPECT_EQ(serialize(Value{true}, false), "true");
  EXPECT_EQ(serialize(Value{false}, false), "false");
  EXPECT_EQ(serialize(Value{42}, false), "42");
  EXPECT_EQ(serialize(Value{-1.5}, false), "-1.5");
  EXPECT_EQ(serialize(Value{"hi"}, false), "\"hi\"");
}

TEST(Serialize, LargeIntegersExact) {
  const std::uint64_t big = (1ull << 53) - 1;
  EXPECT_EQ(serialize(Value{big}, false), "9007199254740991");
}

TEST(Serialize, StringEscapes) {
  EXPECT_EQ(serialize(Value{"a\"b\\c\nd"}, false), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(serialize(Value{std::string("\x01", 1)}, false), "\"\\u0001\"");
}

TEST(Serialize, NonFiniteBecomesNull) {
  EXPECT_EQ(serialize(Value{std::numeric_limits<double>::infinity()}, false),
            "null");
}

TEST(Serialize, CompactContainers) {
  Object object;
  object.set("list", Array{Value{1}, Value{2}});
  object.set("empty", Array{});
  EXPECT_EQ(serialize(Value{std::move(object)}, false),
            R"({"list":[1,2],"empty":[]})");
}

TEST(Serialize, PrettyIndentation) {
  Object inner;
  inner.set("x", 1);
  Object outer;
  outer.set("inner", std::move(inner));
  EXPECT_EQ(serialize(Value{std::move(outer)}, true),
            "{\n  \"inner\": {\n    \"x\": 1\n  }\n}\n");
}

TEST(Parse, Scalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_TRUE(parse("true")->as_bool());
  EXPECT_FALSE(parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(parse("3.5")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-2e3")->as_number(), -2000.0);
  EXPECT_EQ(parse("\"abc\"")->as_string(), "abc");
}

TEST(Parse, NestedDocument) {
  const auto doc = parse(R"({"a": [1, {"b": "c"}], "d": null})");
  ASSERT_TRUE(doc.has_value());
  const Object& root = doc->as_object();
  const Array& a = root.find("a")->as_array();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_EQ(a[1].as_object().find("b")->as_string(), "c");
  EXPECT_TRUE(root.find("d")->is_null());
}

TEST(Parse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"q\"")")->as_string(), "a\nb\t\"q\"");
  EXPECT_EQ(parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(parse(R"("é")")->as_string(), "\xC3\xA9");  // é in UTF-8
}

TEST(Parse, WhitespaceTolerant) {
  const auto doc = parse("  { \"a\" :\n[ 1 , 2 ]\t}  ");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_object().find("a")->as_array().size(), 2u);
}

TEST(Parse, Failures) {
  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("{").has_value());
  EXPECT_FALSE(parse("[1,]").has_value());
  EXPECT_FALSE(parse("{\"a\"}").has_value());
  EXPECT_FALSE(parse("tru").has_value());
  EXPECT_FALSE(parse("\"unterminated").has_value());
  EXPECT_FALSE(parse("1 2").has_value());
  EXPECT_FALSE(parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse("\"bad\\q\"").has_value());
}

TEST(Parse, ErrorsCarryOffset) {
  const auto result = parse("[1, x]");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, util::ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find("offset"), std::string::npos);
}

TEST(Parse, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 1000; ++i) deep += '[';
  for (int i = 0; i < 1000; ++i) deep += ']';
  EXPECT_FALSE(parse(deep, 100).has_value());
  EXPECT_TRUE(parse("[[[[1]]]]", 100).has_value());
}

TEST(RoundTrip, ComplexDocumentSurvives) {
  Object root;
  root.set("name", "mosaic");
  root.set("count", 24606);
  root.set("accuracy", 0.92);
  root.set("flags", Array{Value{true}, Value{false}, Value{nullptr}});
  Object nested;
  nested.set("period_seconds", 599.886);
  root.set("periodicity", std::move(nested));

  const std::string text = serialize(Value{std::move(root)});
  const auto parsed = parse(text);
  ASSERT_TRUE(parsed.has_value());
  const std::string again = serialize(*parsed);
  EXPECT_EQ(text, again);
}

TEST(RoundTrip, DoublesSurviveExactly) {
  // 17 significant digits uniquely identify every double, so
  // serialize -> parse must reproduce the exact bit pattern — the property
  // the shard partial artifacts rely on for byte-identical merges.
  const double values[] = {0.1,
                           1.0 / 3.0,
                           599.886,
                           6.02214076e23,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           -0.0};
  for (const double value : values) {
    const std::string text = serialize(Value{value}, false);
    const auto parsed = parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->as_number(), value) << text;
  }
}

TEST(Parse, OutOfRangeSaturatesInsteadOfFailing) {
  // Overflowing literals historically parsed through strtod, which
  // saturates to +-inf / +-0 rather than erroring; documents written by
  // other producers keep loading (the infinities serialize back as null).
  EXPECT_TRUE(std::isinf(parse("1e999")->as_number()));
  EXPECT_TRUE(std::isinf(parse("-1e999")->as_number()));
  EXPECT_GT(parse("1e999")->as_number(), 0.0);
  EXPECT_LT(parse("-1e999")->as_number(), 0.0);
  EXPECT_EQ(parse("1e-999")->as_number(), 0.0);
  EXPECT_EQ(parse("-1e-999")->as_number(), 0.0);
  EXPECT_TRUE(std::isinf(
      parse("123456789123456789123456789123456789123456789e999")
          ->as_number()));
}

TEST(Locale, NumbersAreLocaleIndependent) {
  // A host application (or plugin) may set a locale whose decimal
  // separator is ','. JSON bytes must not change: the goldens, the resume
  // journal and the shard partials all assume C-locale numerals.
  const char* set = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (set == nullptr) set = std::setlocale(LC_NUMERIC, "de_DE.utf8");
  if (set == nullptr) {
    GTEST_SKIP() << "no de_DE locale installed; install locales and run "
                    "locale-gen de_DE.UTF-8 to enable this regression test";
  }
  // Sanity: the locale really uses ',' — otherwise this test proves nothing.
  char formatted[32];
  std::snprintf(formatted, sizeof formatted, "%.1f", 1.5);
  EXPECT_STREQ(formatted, "1,5");

  EXPECT_EQ(serialize(Value{-1.5}, false), "-1.5");
  EXPECT_EQ(serialize(Value{0.1}, false), "0.10000000000000001");
  EXPECT_EQ(serialize(Value{42}, false), "42");
  EXPECT_DOUBLE_EQ(parse("3.5")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-2e3")->as_number(), -2000.0);

  const std::string text = serialize(Value{599.886}, false);
  const auto parsed = parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_number(), 599.886);

  std::setlocale(LC_NUMERIC, "C");
}

TEST(Reader, RequiredAndOptionalFormsShareOneRule) {
  const auto doc =
      parse(R"({"n": 3, "s": "x", "a": [1, 2], "o": {"k": -1}})");
  ASSERT_TRUE(doc.has_value());
  const Reader r(*doc, "ctx");
  EXPECT_EQ(r.integer<int>("n"), 3);
  EXPECT_EQ(r.string("absent", "fallback"), "fallback");
  EXPECT_EQ(r.array("a").elements<std::uint32_t>(),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(r.object("o").integer<std::int64_t>("k"), -1);
  EXPECT_EQ(r.object("absent", Presence::kOptional).number("x", 2.5), 2.5);
  ASSERT_TRUE(r.ok());

  // Present with the wrong type fails the optional form too, and the first
  // error wins: later reads return defaults without replacing it.
  EXPECT_TRUE(r.boolean("s", true));
  EXPECT_EQ(r.integer<int>("absent"), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::ErrorCode::kParseError);
  EXPECT_EQ(r.error().message, "ctx: 's' is not a bool");
}

TEST(Reader, ErrorsNameTheContextAndKeyPath) {
  const auto message = [](std::string_view text, auto read) {
    const auto doc = parse(text);
    const Reader r(*doc, "ctx");
    read(r);
    return r.ok() ? std::string("ok") : r.error().message;
  };
  EXPECT_EQ(message("[]", [](const Reader&) {}), "ctx: not a JSON object");
  // A key is named with the reader it was read from: "t[0].d", "d.b".
  EXPECT_EQ(message(R"({"t": [{"d": 1}]})",
                    [](const Reader& r) {
                      (void)r.array("t").object(0).object("d");
                    }),
            "ctx: 't[0].d' is not an object");
  EXPECT_EQ(message(R"({"d": {}})",
                    [](const Reader& r) {
                      (void)r.object("d").integer<int>("b");
                    }),
            "ctx: 'd.b' is missing");
  EXPECT_EQ(message(R"({"n": -1})",
                    [](const Reader& r) {
                      (void)r.integer<std::size_t>("n");
                    }),
            "ctx: 'n' = -1 is not an integer in [0, 18446744073709551615]");
  EXPECT_EQ(message(R"({"x": 1e999})",
                    [](const Reader& r) { (void)r.number("x", 0.0); }),
            "ctx: 'x' is not a finite number");
}

}  // namespace
}  // namespace mosaic::json
