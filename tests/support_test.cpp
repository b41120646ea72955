#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "support/assert.h"
#include "support/csv.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"
#include "support/timer.h"

namespace qfs {
namespace {

// ---------------------------------------------------------------------------
// assert
// ---------------------------------------------------------------------------

TEST(Assert, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(QFS_ASSERT(1 + 1 == 2));
}

TEST(Assert, FailingConditionThrowsAssertionError) {
  EXPECT_THROW(QFS_ASSERT(false), AssertionError);
}

TEST(Assert, MessageIncludesExpressionAndLocation) {
  try {
    QFS_ASSERT_MSG(false, "custom context");
    FAIL() << "expected throw";
  } catch (const AssertionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// status
// ---------------------------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = parse_error("bad token");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.to_string(), "parse_error: bad token");
}

TEST(Status, AllCodeNamesAreDistinct) {
  std::set<std::string> names;
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kParseError, StatusCode::kIoError,
                    StatusCode::kFailedPrecondition,
                    StatusCode::kResourceExhausted}) {
    names.insert(status_code_name(code));
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(Status, ResilienceCodes) {
  Status pre = failed_precondition("device too small");
  EXPECT_EQ(pre.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pre.to_string(), "failed_precondition: device too small");
  Status res = resource_exhausted("all attempts failed");
  EXPECT_EQ(res.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(res.to_string(), "resource_exhausted: all attempts failed");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = invalid_argument("missing");
  ASSERT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOr, ValueOnErrorIsContractViolation) {
  StatusOr<int> v = io_error("nope");
  EXPECT_THROW(v.value(), AssertionError);
}

TEST(StatusOr, ConstructionFromOkStatusIsContractViolation) {
  EXPECT_THROW(StatusOr<int>(Status::ok()), AssertionError);
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1 << 20) == b.uniform_int(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntBadRangeIsContractViolation) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), AssertionError);
}

TEST(Rng, UniformRealStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform_real(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.03);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.sample_without_replacement(20, 10);
    std::set<int> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 10u);
    for (int x : s) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, 20);
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(31);
  auto s = rng.sample_without_replacement(5, 5);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementZero) {
  Rng rng(31);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, PickFromEmptyIsContractViolation) {
  Rng rng(37);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), AssertionError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(41);
  Rng forked = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(41);
  b.fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (forked.uniform_int(0, 1 << 20) == b.uniform_int(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 5);
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("surface-17", "surface"));
  EXPECT_FALSE(starts_with("surf", "surface"));
}


TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

/// printf %.*f into a buffer large enough for any double.
std::string printf_fixed(double value, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

TEST(Strings, FormatDoubleMatchesPrintf) {
  // The formatter is std::to_chars(fixed, precision); it must keep printf's
  // bytes, ties and non-finite spellings included, or every emitted QASM
  // text, mapped digest and cache key would move.
  EXPECT_EQ(format_double(std::ldexp(1.0, -13), 12), "0.000122070312");
  EXPECT_EQ(format_double(0.5, 0), "0");
  EXPECT_EQ(format_double(1.5, 0), "2");
  EXPECT_EQ(format_double(2.5, 0), "2");
  const double special[] = {std::ldexp(1.0, -13),
                            0.5,
                            1.5,
                            2.5,
                            0.0,
                            -0.0,
                            1e-13,
                            1e49,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN()};
  const int precisions[] = {0, 1, 2, 3, 6, 12};
  for (double v : special) {
    for (int p : precisions) {
      EXPECT_EQ(format_double(v, p), printf_fixed(v, p)) << v << " at " << p;
    }
  }
  // Seeded random doubles: random sign, random mantissa in [1, 2) and a
  // binary exponent from -60 to 165, so every magnitude stays below
  // 2^166 (about 9.4e49), under 1e50.
  Rng rng(2022);
  int mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    double v =
        std::ldexp(rng.uniform_real(1.0, 2.0), rng.uniform_int(-60, 165));
    if (rng.bernoulli(0.5)) v = -v;
    for (int p : precisions) {
      if (format_double(v, p) != printf_fixed(v, p) && ++mismatches <= 5) {
        ADD_FAILURE() << printf_fixed(v, 17) << " at " << p << ": "
                      << format_double(v, p);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Strings, FormatDoubleKeepsEveryIntegerDigit) {
  // -DBL_MAX needs 309 integer digits; nothing may be cut off.
  const double big = -std::numeric_limits<double>::max();
  EXPECT_EQ(format_double(big, 12), printf_fixed(big, 12));
  EXPECT_EQ(format_double(1e100, 0).size(), 101u);
}

TEST(Strings, ParseInt) {
  int v = 0;
  EXPECT_TRUE(parse_int(" 42 ", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("4x", v));
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("3.5", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("", v));
}

// ---------------------------------------------------------------------------
// json
// ---------------------------------------------------------------------------

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue::null().to_string(), "null");
  EXPECT_EQ(JsonValue::boolean(true).to_string(), "true");
  EXPECT_EQ(JsonValue::boolean(false).to_string(), "false");
  EXPECT_EQ(JsonValue::integer(-42).to_string(), "-42");
  EXPECT_EQ(JsonValue::number(2.5).to_string(), "2.5");
  EXPECT_EQ(JsonValue::string("hi").to_string(), "\"hi\"");
}

TEST(Json, ArrayAndObjectComposition) {
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::integer(1)).push_back(JsonValue::string("two"));
  JsonValue obj = JsonValue::object();
  obj.set("xs", std::move(arr)).set("ok", JsonValue::boolean(true));
  EXPECT_EQ(obj.to_string(), "{\"xs\":[1,\"two\"],\"ok\":true}");
}

TEST(Json, SetOverwritesExistingKey) {
  JsonValue obj = JsonValue::object();
  obj.set("k", JsonValue::integer(1));
  obj.set("k", JsonValue::integer(2));
  EXPECT_EQ(obj.to_string(), "{\"k\":2}");
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonValue::string("tab\there").to_string(), "\"tab\\there\"");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(JsonValue::array().to_string(), "[]");
  EXPECT_EQ(JsonValue::object().to_string(), "{}");
}

TEST(Json, PrettyPrintIndents) {
  JsonValue obj = JsonValue::object();
  obj.set("a", JsonValue::integer(1));
  std::string pretty = obj.to_pretty_string(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(Json, TypeContractViolations) {
  JsonValue scalar = JsonValue::integer(1);
  EXPECT_THROW(scalar.push_back(JsonValue::null()), AssertionError);
  EXPECT_THROW(scalar.set("k", JsonValue::null()), AssertionError);
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", JsonValue::null()), AssertionError);
}

TEST(Json, NonFiniteNumberIsContractViolation) {
  JsonValue v = JsonValue::number(std::nan(""));
  EXPECT_THROW((void)v.to_string(), AssertionError);
}

// ---------------------------------------------------------------------------
// csv
// ---------------------------------------------------------------------------

TEST(Csv, EscapePlainFieldUnchanged) { EXPECT_EQ(csv_escape("abc"), "abc"); }

TEST(Csv, EscapeComma) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuote) { EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\""); }

TEST(Csv, WriterEmitsHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"x", "y"});
  w.row({"1", "2"});
  w.row({"3", "4"});
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(Csv, RowBeforeHeaderIsContractViolation) {
  std::ostringstream os;
  CsvWriter w(os);
  EXPECT_THROW(w.row({"1"}), AssertionError);
}

TEST(Csv, RowWidthMismatchIsContractViolation) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"x", "y"});
  EXPECT_THROW(w.row({"only-one"}), AssertionError);
}

// ---------------------------------------------------------------------------
// JsonValue::parse — the strict wire parser qfsd feeds untrusted input to.
// ---------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_EQ(JsonValue::parse("null").value().to_string(), "null");
  EXPECT_TRUE(JsonValue::parse("true").value().as_bool());
  EXPECT_FALSE(JsonValue::parse("false").value().as_bool());
  EXPECT_EQ(JsonValue::parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonParse, IntegersKeepIntegerKind) {
  auto v = JsonValue::parse("-42").value();
  ASSERT_TRUE(v.is_integer());
  EXPECT_EQ(v.as_integer(), -42);
  EXPECT_DOUBLE_EQ(v.as_number(), -42.0);
}

TEST(JsonParse, DecimalsAndExponentsAreDoubles) {
  auto v = JsonValue::parse("2.5").value();
  EXPECT_TRUE(v.is_number());
  EXPECT_FALSE(v.is_integer());
  EXPECT_DOUBLE_EQ(v.as_number(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").value().as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.25E-2").value().as_number(), -0.0125);
}

TEST(JsonParse, NestedDocumentPreservesMemberOrder) {
  auto v = JsonValue::parse(
      " { \"b\" : [1, 2, {\"x\": true}] , \"a\" : null } ").value();
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(v.members()[1].first, "a");
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->size(), 3u);
  EXPECT_EQ(b->at(1).as_integer(), 2);
  EXPECT_TRUE(b->at(2).find("x")->as_bool());
}

TEST(JsonParse, RoundTripsCompactRendering) {
  const std::string text =
      "{\"a\":[1,2.5,\"s\"],\"b\":{\"c\":true,\"d\":null}}";
  auto v = JsonValue::parse(text);
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(v.value().to_string(), text);
}

TEST(JsonParse, StringEscapesAndUnicode) {
  auto v = JsonValue::parse("\"a\\n\\t\\\"\\\\\\/\\u0041\"").value();
  EXPECT_EQ(v.as_string(), "a\n\t\"\\/A");
  // Surrogate pair: U+1F600 encodes as 4 UTF-8 bytes.
  EXPECT_EQ(JsonValue::parse("\"\\uD83D\\uDE00\"").value().as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, TruncatedInputIsParseError) {
  for (const char* text :
       {"", "{", "[1,", "{\"a\":", "\"unterminated", "tru", "-"}) {
    auto v = JsonValue::parse(text);
    ASSERT_FALSE(v.is_ok()) << "accepted: " << text;
    EXPECT_EQ(v.status().code(), StatusCode::kParseError);
  }
}

TEST(JsonParse, TrailingGarbageRejected) {
  auto v = JsonValue::parse("{} extra");
  ASSERT_FALSE(v.is_ok());
  EXPECT_NE(v.status().message().find("trailing"), std::string::npos);
}

TEST(JsonParse, DuplicateObjectKeyRejected) {
  auto v = JsonValue::parse("{\"a\":1,\"a\":2}");
  ASSERT_FALSE(v.is_ok());
  EXPECT_NE(v.status().message().find("duplicate object key"),
            std::string::npos);
}

TEST(JsonParse, ErrorsNameTheBytePosition) {
  auto v = JsonValue::parse("[1, x]");
  ASSERT_FALSE(v.is_ok());
  EXPECT_NE(v.status().message().find("at byte 4"), std::string::npos);
}

TEST(JsonParse, NestingDepthIsCapped) {
  // 64 levels parse; 100 must be rejected, not overflow the stack.
  std::string deep_ok(64, '[');
  deep_ok += "1";
  deep_ok += std::string(64, ']');
  EXPECT_TRUE(JsonValue::parse(deep_ok).is_ok());
  std::string too_deep(100, '[');
  too_deep += "1";
  too_deep += std::string(100, ']');
  auto v = JsonValue::parse(too_deep);
  ASSERT_FALSE(v.is_ok());
  EXPECT_NE(v.status().message().find("nesting too deep"), std::string::npos);
}

TEST(JsonParse, ControlCharacterInStringRejected) {
  auto v = JsonValue::parse("\"a\nb\"");
  ASSERT_FALSE(v.is_ok());
  EXPECT_NE(v.status().message().find("control character"),
            std::string::npos);
}

TEST(Timer, StopWatchIsMonotonicNonNegative) {
  StopWatch watch;
  double a = watch.elapsed_ms();
  double b = watch.elapsed_ms();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  watch.restart();
  EXPECT_GE(watch.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace qfs
