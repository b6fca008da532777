// Shared JSON plumbing (common/json.hpp): the escaping and number
// formatting every exporter relies on for the determinism contract, and
// the matching reader — key-order preservation, \uXXXX handling, and
// trailing-garbage rejection, all of which the ledger/diff/html tests
// build on.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "metrics/export.hpp"
#include "metrics/metrics.hpp"

namespace irmc {
namespace {

TEST(Escape, ControlQuoteAndBackslash) {
  EXPECT_EQ(json::Escape("plain ascii"), "plain ascii");
  EXPECT_EQ(json::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::Escape("a\nb\tc"), "a\\nb\\tc");
  // Other C0 controls take the \u00xx form.
  EXPECT_EQ(json::Escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json::Escape(std::string(1, '\x1f')), "\\u001f");
  // Str wraps with quotes.
  EXPECT_EQ(json::Str("x\"y"), "\"x\\\"y\"");
}

TEST(Num, IntegersAreExactAndDoublesRoundTrip) {
  EXPECT_EQ(json::Num(std::int64_t{0}), "0");
  EXPECT_EQ(json::Num(std::int64_t{-7}), "-7");
  EXPECT_EQ(json::Num(std::int64_t{9007199254740993LL}), "9007199254740993");
  // %.17g round-trips any double exactly through strtod.
  for (double v : {0.1, 1.0 / 3.0, 3.141592653589793, -2.5e-17, 1e300}) {
    const std::string s = json::Num(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(json::Num(0.3), "0.29999999999999999");
}

TEST(Num, NonFiniteDoublesWriteNull) {
  EXPECT_EQ(json::Num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::Num(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::Num(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Parse, RoundTripsObjectsPreservingKeyOrder) {
  const std::string text =
      "{\"zeta\":1,\"alpha\":[true,false,null,\"s\"],\"mid\":{\"k\":-2.5}}";
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &v, &error)) << error;
  ASSERT_TRUE(v.IsObject());
  // Writer-emitted order survives (our writers sort; the parser must
  // not re-sort behind their back).
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "zeta");
  EXPECT_EQ(v.object[1].first, "alpha");
  EXPECT_EQ(v.object[2].first, "mid");
  const json::Value* arr = v.Find("alpha");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->IsArray());
  ASSERT_EQ(arr->array.size(), 4u);
  EXPECT_TRUE(arr->array[0].boolean);
  EXPECT_EQ(arr->array[2].kind, json::Value::Kind::kNull);
  EXPECT_EQ(arr->array[3].StringOr(""), "s");
  EXPECT_EQ(v.Find("mid")->NumAt("k", 0.0), -2.5);
  EXPECT_EQ(v.NumAt("zeta", 0.0), 1.0);
  EXPECT_EQ(v.NumAt("absent", 42.0), 42.0);
}

TEST(Parse, EscapesDecodeIncludingUnicode) {
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::Parse("\"a\\n\\t\\\\\\\"\\u0041\\u00e9\"", &v, &error))
      << error;
  // A = 'A'; é = é as two UTF-8 bytes.
  EXPECT_EQ(v.StringOr(""), std::string("a\n\t\\\"A\xc3\xa9"));
  // An escaped control character round-trips through Escape+Parse.
  const std::string original = "line1\nline2\x01end";
  std::string quoted = "\"";  // two steps: GCC 12 -Wrestrict FP
  quoted += json::Escape(original);
  quoted += '"';
  json::Value round;
  ASSERT_TRUE(json::Parse(quoted, &round, &error)) << error;
  EXPECT_EQ(round.StringOr(""), original);
}

TEST(Parse, RejectsMalformedInputWithOffset) {
  json::Value v;
  std::string error;
  // Trailing garbage after a complete document.
  EXPECT_FALSE(json::Parse("{\"a\":1} extra", &v, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  EXPECT_FALSE(json::Parse("{\"a\":}", &v, &error));
  EXPECT_FALSE(json::Parse("{\"a\" 1}", &v, &error));
  EXPECT_FALSE(json::Parse("[1,2", &v, &error));
  EXPECT_FALSE(json::Parse("\"unterminated", &v, &error));
  EXPECT_FALSE(json::Parse("\"bad \\u00zz escape\"", &v, &error));
  EXPECT_FALSE(json::Parse("nope", &v, &error));
  EXPECT_FALSE(json::Parse("", &v, &error));
}

TEST(Parse, TakesRfc8259NumbersOnly) {
  json::Value v;
  std::string error;
  // strtod takes every one of these; JSON takes none, alone or as a
  // member or element.
  for (const std::string token :
       {"0x10", "+3", ".5", "01", "1.", "inf", "nan", "-0x1", "NaN",
        "Infinity", "-inf", "1e", "1e+", "-", "1.e5", "00"}) {
    EXPECT_FALSE(json::Parse(token, &v, &error)) << token;
    EXPECT_FALSE(json::Parse("[" + token + "]", &v, &error)) << token;
    EXPECT_FALSE(json::Parse("{\"a\":" + token + "}", &v, &error)) << token;
  }
  EXPECT_FALSE(json::Parse("1.", &v, &error));
  EXPECT_NE(error.find("offset 2"), std::string::npos) << error;

  const std::pair<const char*, double> good[] = {
      {"0", 0.0},
      {"-0", -0.0},
      {"7", 7.0},
      {"-12", -12.0},
      {"0.5", 0.5},
      {"10.25", 10.25},
      {"1e3", 1000.0},
      {"1E+2", 100.0},
      {"-2.5e-3", -2.5e-3},
      {"0.29999999999999999", 0.3},
      {"9007199254740993", 9007199254740992.0},
  };
  for (const auto& [text, want] : good) {
    ASSERT_TRUE(json::Parse(text, &v, &error)) << text << ": " << error;
    EXPECT_TRUE(v.IsNumber()) << text;
    EXPECT_EQ(v.number, want) << text;
    ASSERT_TRUE(json::Parse(std::string("[") + text + ",1]", &v, &error))
        << text << ": " << error;
    EXPECT_EQ(v.array.at(0).number, want) << text;
  }
}

TEST(Parse, RegistryWithNonFiniteGaugesRoundTrips) {
  MetricsRegistry reg;
  reg.GetGauge("g.inf").Set(std::numeric_limits<double>::infinity());
  reg.GetGauge("g.nan").Set(std::numeric_limits<double>::quiet_NaN());
  reg.GetGauge("g.ok").Set(1.5);
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::Parse(ToJson(reg), &v, &error)) << error;
  const json::Value* gauges = v.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* name : {"g.inf", "g.nan"}) {
    ASSERT_NE(gauges->Find(name), nullptr) << name;
    const json::Value* value = gauges->Find(name)->Find("value");
    ASSERT_NE(value, nullptr) << name;
    EXPECT_EQ(value->kind, json::Value::Kind::kNull) << name;
  }
  EXPECT_EQ(gauges->Find("g.ok")->NumAt("value", 0.0), 1.5);
  // Every JSON-lines record parses too; CSV cells keep their text.
  const std::string lines = ToJsonLines(reg);
  std::size_t begin = 0;
  for (std::size_t end; (end = lines.find('\n', begin)) != std::string::npos;
       begin = end + 1)
    EXPECT_TRUE(json::Parse(lines.substr(begin, end - begin), &v, &error))
        << error;
  const std::string csv = ToCsv(reg);
  EXPECT_NE(csv.find("gauge,g.inf,sum,inf\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("gauge,g.nan,sum,nan\n"), std::string::npos) << csv;
}

}  // namespace
}  // namespace irmc
