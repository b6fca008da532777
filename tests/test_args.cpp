#include "common/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "core/config.hpp"

namespace irmc {
namespace {

Args ParseVec(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args::Parse(static_cast<int>(v.size()), v.data());
}

TEST(Args, CommandAndKeyValues) {
  const Args args = ParseVec({"single", "--size", "15", "--scheme",
                              "tree-worm"});
  EXPECT_EQ(args.command(), "single");
  EXPECT_EQ(args.GetIntIn("size", 0, 1, 31), 15);
  EXPECT_EQ(args.GetString("scheme", ""), "tree-worm");
}

TEST(Args, DefaultsWhenMissing) {
  const Args args = ParseVec({"load"});
  EXPECT_EQ(args.GetIntIn("degree", 8, 1, 31), 8);
  EXPECT_DOUBLE_EQ(args.GetDouble("load", 0.25), 0.25);
  EXPECT_DOUBLE_EQ(args.GetDoubleAbove("ratio", 2.0, 0.0), 2.0);
  EXPECT_EQ(args.GetString("scheme", "fallback"), "fallback");
  EXPECT_FALSE(args.GetFlag("dot"));
}

TEST(Args, FlagsHaveNoValue) {
  const Args args = ParseVec({"topology", "--dot", "--seed", "9"});
  EXPECT_TRUE(args.GetFlag("dot"));
  EXPECT_EQ(args.GetIntIn("seed", 0, 0, 100), 9);
}

TEST(Args, FlagBeforeAnotherOption) {
  const Args args = ParseVec({"topology", "--dot", "--save", "out.txt"});
  EXPECT_TRUE(args.GetFlag("dot"));
  EXPECT_EQ(args.GetString("save", ""), "out.txt");
}

TEST(Args, NoCommandIsEmpty) {
  const Args args = ParseVec({"--size", "3"});
  EXPECT_TRUE(args.command().empty());
  EXPECT_EQ(args.GetIntIn("size", 0, 1, 31), 3);
}

TEST(ArgsDeathTest, MalformedNumbersAreRejected) {
  // Checked options never fall back to their default on a malformed
  // value: they exit naming the accepted range.
  const Args args = ParseVec({"single", "--size", "abc", "--load", "x.y"});
  EXPECT_EXIT(args.GetIntIn("size", 7, 1, 31), ::testing::ExitedWithCode(2),
              "invalid value for --size: 'abc' \\(accepted: integers from "
              "1 to 31\\)");
  EXPECT_EXIT(args.GetDoubleAbove("load", 0.5, 0.0),
              ::testing::ExitedWithCode(2),
              "invalid value for --load: 'x.y' \\(accepted: finite numbers "
              "> 0\\)");
}

TEST(ArgsDeathTest, GetDoubleAboveExitsOutsideItsRange) {
  for (const char* bad : {"0", "-1", "", "nan", "inf", "1e999", "0.5x"}) {
    const Args args = ParseVec({"load", "--load", bad});
    EXPECT_EXIT(args.GetDoubleAbove("load", 0.2, 0.0),
                ::testing::ExitedWithCode(2), "invalid value for --load")
        << bad;
  }
  const Args ok = ParseVec({"load", "--load", "0.25"});
  EXPECT_DOUBLE_EQ(ok.GetDoubleAbove("load", 0.2, 0.0), 0.25);
  const Args absent = ParseVec({"load"});
  EXPECT_DOUBLE_EQ(absent.GetDoubleAbove("load", 0.2, 0.0), 0.2);
}

TEST(Args, ParseIntInTakesWholeIntegersInRange) {
  std::int64_t v = -1;
  EXPECT_TRUE(ParseIntIn("42", 1, 100, &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseIntIn("-9223372036854775808", INT64_MIN, 0, &v));
  EXPECT_EQ(v, INT64_MIN);
  v = 7;
  for (const char* bad : {"", "abc", "16x", "0", "101", "4294967296",
                          "99999999999999999999", "-99999999999999999999"}) {
    EXPECT_FALSE(ParseIntIn(bad, 1, 100, &v)) << bad;
    EXPECT_EQ(v, 7) << bad;
  }
}

TEST(ArgsDeathTest, GetIntInExitsOnValuesThatDoNotFit) {
  const Args wide = ParseVec({"single", "--packets", "4294967296"});
  EXPECT_EXIT(wide.GetIntIn("packets", 1, 1, INT32_MAX),
              ::testing::ExitedWithCode(2),
              "invalid value for --packets: '4294967296' \\(accepted: "
              "integers from 1 to 2147483647\\)");
  const Args junk = ParseVec({"single", "--switches", "16x"});
  EXPECT_EXIT(junk.GetIntIn("switches", 8, 1, 64),
              ::testing::ExitedWithCode(2),
              "invalid value for --switches: '16x' \\(accepted: "
              "integers from 1 to 64\\)");
  const Args low = ParseVec({"single", "--packets", "0"});
  EXPECT_EXIT(low.GetIntIn("packets", 1, 1, INT32_MAX),
              ::testing::ExitedWithCode(2),
              "invalid value for --packets: '0' \\(accepted: integers >= 1\\)");
  const Args absent = ParseVec({"single"});
  EXPECT_EQ(absent.GetIntIn("packets", 3, 1, 8), 3);
}

TEST(EnvInt, AcceptsOnlyPositiveIntegersThatFitAnInt) {
  constexpr const char* kName = "IRMC_TEST_ENV_INT";
  const auto read = [kName](const char* value) {
    ::setenv(kName, value, 1);
    return EnvInt(kName, -7);
  };
  EXPECT_EQ(read("4"), 4);
  EXPECT_EQ(read("2147483647"), 2147483647);
  for (const char* bad : {"", "0", "-3", "4x", "2147483648", "4294967300",
                          "99999999999999999999"})
    EXPECT_EQ(read(bad), -7) << bad;
  ::unsetenv(kName);
  EXPECT_EQ(EnvInt(kName, -7), -7);
}

TEST(Args, NegativeAndFloatValues) {
  const Args args = ParseVec({"x", "--delta", "-3", "--ratio", "0.5"});
  EXPECT_EQ(args.GetIntIn("delta", 0, INT64_MIN, INT64_MAX), -3);
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0.0), 0.5);
}

TEST(Args, UnconsumedKeysDetected) {
  const Args args = ParseVec({"single", "--size", "3", "--typo", "1"});
  (void)args.GetIntIn("size", 0, 1, 31);
  const auto leftover = args.UnconsumedKeys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(Args, StrayPositionalFlagged) {
  const Args args = ParseVec({"single", "oops"});
  EXPECT_FALSE(args.UnconsumedKeys().empty());
}

TEST(Args, GetChoiceAcceptsListedValueAndFallsBackWhenAbsent) {
  const Args args = ParseVec({"single", "--engine", "flit"});
  EXPECT_EQ(args.GetChoice("engine", "vct", {"vct", "flit"}), "flit");
  EXPECT_EQ(args.GetChoice("pattern", "uniform", {"uniform", "hotspot"}),
            "uniform");
}

TEST(ArgsDeathTest, GetChoiceRejectsTypoListingAcceptedValues) {
  const Args args = ParseVec({"single", "--engine", "filt"});
  EXPECT_EXIT(args.GetChoice("engine", "vct", {"vct", "flit"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --engine: 'filt' \\(accepted: vct, flit\\)");
}

TEST(Args, HasChecksPresence) {
  const Args args = ParseVec({"x", "--a", "1"});
  EXPECT_TRUE(args.Has("a"));
  EXPECT_FALSE(args.Has("b"));
}

}  // namespace
}  // namespace irmc
