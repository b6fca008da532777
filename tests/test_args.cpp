#include "common/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

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
  EXPECT_DOUBLE_EQ(args.GetDoubleIn("load", 0.25, RealRange::AtLeast(0.0)),
                   0.25);
  EXPECT_DOUBLE_EQ(args.GetDoubleIn("ratio", 2.0, RealRange::Above(0.0)),
                   2.0);
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
  EXPECT_EXIT(args.GetDoubleIn("load", 0.5, RealRange::Above(0.0)),
              ::testing::ExitedWithCode(2),
              "invalid value for --load: 'x.y' \\(accepted: finite numbers "
              "> 0\\)");
}

TEST(ArgsDeathTest, GetDoubleAboveExitsOutsideItsRange) {
  for (const char* bad : {"0", "-1", "", "nan", "inf", "1e999", "0.5x"}) {
    const Args args = ParseVec({"load", "--load", bad});
    EXPECT_EXIT(args.GetDoubleIn("load", 0.2, RealRange::Above(0.0)),
                ::testing::ExitedWithCode(2), "invalid value for --load")
        << bad;
  }
  const Args ok = ParseVec({"load", "--load", "0.25"});
  EXPECT_DOUBLE_EQ(ok.GetDoubleIn("load", 0.2, RealRange::Above(0.0)),
                   0.25);
  const Args absent = ParseVec({"load"});
  EXPECT_DOUBLE_EQ(absent.GetDoubleIn("load", 0.2, RealRange::Above(0.0)),
                   0.2);
}

TEST(ArgsDeathTest, GetDoubleInExitsOutsideItsRange) {
  struct Case {
    RealRange range;
    const char* accepted;
    std::vector<const char*> bad;
    std::vector<double> good;
  };
  const Case cases[] = {
      {RealRange::AtLeast(0.0), "finite numbers >= 0",
       {"-1", "-1e-300", "abc", "", "nan", "inf", "1e999", "2x"},
       {0.0, 6000.0}},
      {RealRange::Inside(0.0, 1.0), "numbers in \\(0, 1\\)",
       {"0", "1", "-0.5", "1.5", "nan", "0.9.5"},
       {0.5, 0.999}},
  };
  for (const Case& c : cases) {
    for (const char* bad : c.bad) {
      const Args args = ParseVec({"x", "--mtbf", bad});
      EXPECT_EXIT(args.GetDoubleIn("mtbf", 1.0, c.range),
                  ::testing::ExitedWithCode(2),
                  std::string("invalid value for --mtbf: '") + bad +
                      "' \\(accepted: " + c.accepted + "\\)")
          << bad;
    }
    for (double good : c.good) {
      const std::string text = std::to_string(good);
      const Args args = ParseVec({"x", "--mtbf", text.c_str()});
      EXPECT_DOUBLE_EQ(args.GetDoubleIn("mtbf", 1.0, c.range), good);
    }
  }
}

TEST(Args, ListsParseEveryToken) {
  const Args args = ParseVec({"record", "--sizes", "2,31", "--loads",
                              "0.05,1e-3"});
  EXPECT_EQ(args.GetIntListIn("sizes", "4", 1, 31),
            (std::vector<std::int64_t>{2, 31}));
  EXPECT_EQ(args.GetDoubleListIn("loads", "0.3", RealRange::Above(0.0)),
            (std::vector<double>{0.05, 1e-3}));
  const Args absent = ParseVec({"record"});
  EXPECT_EQ(absent.GetIntListIn("sizes", "4,8", 1, 31),
            (std::vector<std::int64_t>{4, 8}));
}

TEST(ArgsDeathTest, ListsRejectAnyBadToken) {
  for (const char* bad : {"4,x", "4,", ",4", "", "4,,8", "0,4", "4,32",
                          "8,9x", "4;8"}) {
    const Args args = ParseVec({"record", "--sizes", bad});
    EXPECT_EXIT(args.GetIntListIn("sizes", "2", 1, 31),
                ::testing::ExitedWithCode(2),
                std::string("invalid value for --sizes: '") + bad +
                    "' \\(accepted: comma-separated integers")
        << bad;
  }
  for (const char* bad : {"0.05,abc", "0,0.1", "0.1,-1", "0.1,inf"}) {
    const Args args = ParseVec({"record", "--loads", bad});
    EXPECT_EXIT(args.GetDoubleListIn("loads", "0.3", RealRange::Above(0.0)),
                ::testing::ExitedWithCode(2),
                std::string("invalid value for --loads: '") + bad +
                    "' \\(accepted: comma-separated finite numbers > 0\\)")
        << bad;
  }
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
  // So does a default outside a range another option narrowed.
  EXPECT_EXIT(absent.GetIntIn("nodes", 32, 1, 14),
              ::testing::ExitedWithCode(2),
              "invalid value for --nodes: the default 32 is out of range "
              "\\(accepted: integers from 1 to 14\\)");
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
  EXPECT_DOUBLE_EQ(args.GetDoubleIn("ratio", 0.0, RealRange::AtLeast(0.0)),
                   0.5);
}

TEST(Args, UnconsumedKeysDetected) {
  const Args args = ParseVec({"single", "--size", "3", "--typo", "1"});
  (void)args.GetIntIn("size", 0, 1, 31);
  const auto leftover = args.UnconsumedKeys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(ArgsDeathTest, StrayPositionalNamedAsAnUnexpectedArgument) {
  const Args args = ParseVec({"single", "oops"});
  EXPECT_TRUE(args.UnconsumedKeys().empty());  // not an option
  EXPECT_EXIT(args.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unexpected argument: oops\n$");
}

TEST(Args, PositionalsTakenAsOperandsAreNotRejected) {
  const Args args = ParseVec({"summarize", "a.jsonl", "b.jsonl"});
  EXPECT_EQ(args.Positionals(),
            (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
  args.RejectUnknown();  // returns: both were taken
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
