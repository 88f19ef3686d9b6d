// Utility layer: RNG determinism, span kernels, table formatting, string
// helpers, CLI parsing, error machinery, runtime knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hpfcg/util/cli.hpp"
#include "hpfcg/util/error.hpp"
#include "hpfcg/util/knob.hpp"
#include "hpfcg/util/rng.hpp"
#include "hpfcg/util/span_math.hpp"
#include "hpfcg/util/str.hpp"
#include "hpfcg/util/table.hpp"
#include "hpfcg/util/timer.hpp"

namespace u = hpfcg::util;

namespace {

TEST(Rng, DeterministicSequences) {
  u::Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  u::Xoshiro256 a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  u::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    const double w = rng.uniform(-3.0, 5.0);
    EXPECT_GE(w, -3.0);
    EXPECT_LT(w, 5.0);
  }
}

TEST(Rng, BelowIsExactAndBounded) {
  u::Xoshiro256 rng(11);
  std::vector<int> hist(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++hist[v];
  }
  for (const int h : hist) {
    EXPECT_GT(h, 700);  // roughly uniform
    EXPECT_LT(h, 1300);
  }
}

TEST(SpanMath, AxpyAypxDotNormCopyFill) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  EXPECT_EQ(u::axpy<double>(2.0, x, y), 6u);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
  EXPECT_EQ(u::aypx<double>(0.5, x, y), 6u);  // y = 0.5*y + x
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(u::dot_local<double>(x, x), 14.0);
  EXPECT_DOUBLE_EQ(u::norm2_sq_local<double>(x), 14.0);
  u::fill<double>(y, 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  u::copy<double>(x, y);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_EQ(u::scale<double>(3.0, y), 3u);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  std::vector<double> z = {-5.0, 2.0};
  EXPECT_DOUBLE_EQ(u::max_abs_local<double>(z), 5.0);
  std::vector<double> wrong = {1.0};
  EXPECT_THROW(u::axpy<double>(1.0, x, wrong), u::Error);
}

TEST(Table, AlignedOutput) {
  u::Table t("demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "many", "cells"}), u::Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(u::fmt(3.14159, 3), "3.14");
  EXPECT_EQ(u::fmt_fixed(23456.7), "23457");  // fmt(.., 0) gives "2e+04"
  EXPECT_EQ(u::fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(u::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(u::fmt_count(5), "5");
  EXPECT_EQ(u::fmt_count(0), "0");
}

TEST(Str, Helpers) {
  EXPECT_EQ(u::split_ws("  a  bb\tccc \n"),
            (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(u::starts_with("hello", "he"));
  EXPECT_FALSE(u::starts_with("hello", "lo"));
  EXPECT_EQ(u::to_lower("AbC"), "abc");
  EXPECT_EQ(u::trim("  x y  "), "x y");
  EXPECT_EQ(u::trim(""), "");
}

TEST(Cli, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--n", "100", "--tol=1e-8", "--verbose"};
  u::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 1, "size"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 1e-4, "tolerance"), 1e-8);
  EXPECT_TRUE(cli.get_flag("verbose", "chatty"));
  EXPECT_EQ(cli.get("missing", "fallback", "unused"), "fallback");
  EXPECT_FALSE(cli.help_requested());
  cli.finish();
  EXPECT_NE(cli.help_text("prog").find("--n"), std::string::npos);
}

TEST(Cli, RejectsUnknownAndMalformedOptions) {
  {
    const char* argv[] = {"prog", "--known", "1", "--unknown", "2"};
    u::Cli cli(5, argv);
    (void)cli.get_int("known", 0, "");
    EXPECT_THROW(cli.finish(), u::Error);
  }
  {
    const char* argv[] = {"prog", "bare"};
    EXPECT_THROW(u::Cli(2, argv), u::Error);
  }
  {
    const char* argv[] = {"prog", "--n", "abc"};
    u::Cli cli(3, argv);
    EXPECT_THROW((void)cli.get_int("n", 0, ""), u::Error);
  }
}

TEST(Cli, HelpFlag) {
  const char* argv[] = {"prog", "--help"};
  u::Cli cli(2, argv);
  EXPECT_TRUE(cli.help_requested());
}

TEST(Error, RequireThrowsWithContext) {
  try {
    HPFCG_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const u::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

// ---- runtime knobs -----------------------------------------------------

// One row per (variable, text): `want` is the parsed value as text, or ""
// when the text must be rejected.  Each variable is parsed with the type
// and minimum its knob declares.
struct KnobCase {
  const char* var;
  const char* text;
  const char* want;
};

// Names each table row by its variable and text (e.g. HPFCG_CHECK="1"):
// gtest's default prints the row's pointer bytes, so the test names would
// change with every build.
void PrintTo(const KnobCase& c, std::ostream* os) {
  *os << c.var << "=\"" << c.text << '"';
}

std::string parse_as_knob(const std::string& var, const char* text) {
  if (var == "HPFCG_CHECK_TIMEOUT_MS") {
    return std::to_string(u::parse_knob<std::int64_t>(var, text, 1));
  }
  if (var == "HPFCG_TRACE_CAPACITY") {
    return std::to_string(u::parse_knob<std::size_t>(var, text, 1));
  }
  if (var == "HPFCG_RACE_SEED") {
    return std::to_string(u::parse_knob<std::uint64_t>(var, text));
  }
  return u::parse_knob<bool>(var, text) ? "on" : "off";
}

const KnobCase kKnobCases[] = {
    {"HPFCG_CHECK", "1", "on"},
    {"HPFCG_TRACE", "ON", "on"},
    {"HPFCG_RACE", "True", "on"},
    {"HPFCG_REPRO", "yes", "on"},
    {"HPFCG_HALO", "On", "on"},  // read as off (O(n) gather) before strict parsing
    {"HPFCG_CHECK", "0", "off"},
    {"HPFCG_TRACE", "off", "off"},
    {"HPFCG_REPRO", "No", "off"},
    {"HPFCG_HALO", "banana", ""},
    {"HPFCG_CHECK", "", ""},
    {"HPFCG_TRACE", " 1", ""},
    {"HPFCG_RACE", "2", ""},
    {"HPFCG_CHECK_TIMEOUT_MS", "250", "250"},
    {"HPFCG_CHECK_TIMEOUT_MS", "5s", ""},  // was a 5 ms watchdog
    {"HPFCG_CHECK_TIMEOUT_MS", "abc", ""},
    {"HPFCG_CHECK_TIMEOUT_MS", "-5", ""},
    {"HPFCG_CHECK_TIMEOUT_MS", "0", ""},
    {"HPFCG_TRACE_CAPACITY", "8", "8"},
    {"HPFCG_TRACE_CAPACITY", "64k", ""},  // was 64 spans
    {"HPFCG_TRACE_CAPACITY", "0", ""},
    {"HPFCG_RACE_SEED", "0", "0"},
    {"HPFCG_RACE_SEED", "18446744073709551615", "18446744073709551615"},
    {"HPFCG_RACE_SEED", "-1", ""},  // was wrapped to 2^64-1, arming replay
    {"HPFCG_RACE_SEED", "abc", ""},  // was silently 0
    {"HPFCG_RACE_SEED", "18446744073709551616", ""},
};

class ParseKnob : public ::testing::TestWithParam<KnobCase> {};

TEST_P(ParseKnob, AcceptsOrRejectsNamingVariableAndValue) {
  const KnobCase& c = GetParam();
  if (*c.want != '\0') {
    EXPECT_EQ(parse_as_knob(c.var, c.text), c.want);
    return;
  }
  try {
    const std::string got = parse_as_knob(c.var, c.text);
    FAIL() << c.var << "=\"" << c.text << "\" accepted as " << got;
  } catch (const u::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string(c.var) + "=\"" + c.text + "\""),
              std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Table, ParseKnob, ::testing::ValuesIn(kKnobCases));

// The env-parsing tests build a fresh knob each run (a knob parses once per
// lifetime), with a default opposite to what they set, so a read that
// ignored the environment would fail.
TEST(Knob, ParsesEnvOnFirstUseOnly) {
  u::Knob<bool> halo{"HPFCG_HALO", false};
  ::setenv("HPFCG_HALO", "On", 1);
  EXPECT_TRUE(halo.get());
  ::setenv("HPFCG_HALO", "0", 1);
  EXPECT_TRUE(halo.get()) << "parsed on first use only";
  ::unsetenv("HPFCG_HALO");
}

TEST(Knob, BadEnvValueThrowsUntilFixed) {
  u::Knob<std::int64_t> timeout{"HPFCG_CHECK_TIMEOUT_MS", 20000, 1};
  ::setenv("HPFCG_CHECK_TIMEOUT_MS", "5s", 1);
  EXPECT_THROW((void)timeout.get(), u::Error);
  EXPECT_THROW((void)timeout.get(), u::Error);
  ::unsetenv("HPFCG_CHECK_TIMEOUT_MS");
  EXPECT_EQ(timeout.get(), 20000);
}

// A ScopedKnob names its knob as a template argument, so these need static
// storage; the variable names are never set.
constinit u::Knob<bool> test_bool_knob{"HPFCG_UTIL_TEST_BOOL", true};
constinit u::Knob<std::int64_t> test_int_knob{"HPFCG_UTIL_TEST_INT", 20000, 1};

TEST(Knob, ScopedOverrideRestoresOnExitAndUnwind) {
  {
    u::ScopedKnob<test_bool_knob> off(false);
    EXPECT_FALSE(test_bool_knob.get());
    {
      u::ScopedKnob<test_bool_knob> on;  // a bool override defaults to on
      EXPECT_TRUE(test_bool_knob.get());
    }
    EXPECT_FALSE(test_bool_knob.get());
  }
  EXPECT_TRUE(test_bool_knob.get());
  try {
    u::ScopedKnob<test_bool_knob> off(false);
    throw std::runtime_error("test body failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(test_bool_knob.get()) << "override leaked past an exception";
}

TEST(Knob, OverrideBelowMinimumThrowsAndChangesNothing) {
  EXPECT_THROW(u::ScopedKnob<test_int_knob> zero(0), u::Error);
  EXPECT_EQ(test_int_knob.get(), 20000);
}

TEST(Timer, MeasuresElapsedTime) {
  u::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GT(t.micros(), t.seconds());  // unit sanity
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
