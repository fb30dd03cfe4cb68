// Unit tests for string helpers used by the parsers.

#include <gtest/gtest.h>

#include "hierarq/util/strings.h"

namespace hierarq {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("\t\n abc \r\n"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(Strings, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(" a , b ", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(Strings, SplitTopLevelRespectsParens) {
  EXPECT_EQ(SplitTopLevel("R(A,B), S(C)", ','),
            (std::vector<std::string>{"R(A,B)", "S(C)"}));
  EXPECT_EQ(SplitTopLevel("f(g(x,y),z), h", ','),
            (std::vector<std::string>{"f(g(x,y),z)", "h"}));
  EXPECT_EQ(SplitTopLevel("plain", ','),
            (std::vector<std::string>{"plain"}));
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hierarchy", "hier"));
  EXPECT_FALSE(StartsWith("hier", "hierarchy"));
  EXPECT_TRUE(EndsWith("query.txt", ".txt"));
  EXPECT_FALSE(EndsWith("txt", "query.txt"));
}

TEST(Strings, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("  8 "), 8);
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2.25 "), -2.25);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("0.5p").ok());
}

TEST(Strings, ParseDoubleRejectsNonFiniteLiterals) {
  // strtod spells NaN and infinity several ways; none is a weight.
  for (const char* text : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf",
                           "+INF", "infinity", " inf "}) {
    const Result<double> parsed = ParseDouble(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
  }
  // Overflow to infinity was already an error; the finite extremes parse.
  EXPECT_FALSE(ParseDouble("1e999").ok());
  EXPECT_DOUBLE_EQ(*ParseDouble("1.7976931348623157e308"),
                   1.7976931348623157e308);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0"), 0.0);
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("R"));
  EXPECT_TRUE(IsIdentifier("R1"));
  EXPECT_TRUE(IsIdentifier("_private"));
  EXPECT_TRUE(IsIdentifier("R'"));  // Primed relation names.
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("1R"));
  EXPECT_FALSE(IsIdentifier("a b"));
  EXPECT_FALSE(IsIdentifier("'a"));
}

TEST(Strings, LooksLikeVariable) {
  EXPECT_TRUE(LooksLikeVariable("X"));
  EXPECT_TRUE(LooksLikeVariable("Abc"));
  EXPECT_FALSE(LooksLikeVariable("x"));
  EXPECT_FALSE(LooksLikeVariable("1"));
  EXPECT_FALSE(LooksLikeVariable(""));
}

}  // namespace
}  // namespace hierarq
