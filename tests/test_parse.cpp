// Tests for the checked numeric parsers every command-line and environment
// knob goes through (common/parse.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace coolpim {
namespace {

/// Expect a ConfigError whose message names the knob.
template <typename Fn>
void expect_rejected(Fn fn, const char* name, const char* text) {
  try {
    (void)fn();
    ADD_FAILURE() << name << " '" << text << "' was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string{e.what()}.find(name), std::string::npos) << e.what();
  }
}

TEST(ParseU64, AcceptsPlainDecimalsUpToTheBound) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "42"), 42u);
  EXPECT_EQ(parse_u64("--n", "007"), 7u);
  EXPECT_EQ(parse_u64("--n", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("--n", "4294967295", std::numeric_limits<std::uint32_t>::max()),
            4294967295u);
  EXPECT_EQ(parse_u64("--n", "1024", 1024), 1024u);
}

TEST(ParseU64, RejectsSignsGarbageOverflowAndValuesAboveTheBound) {
  for (const char* bad : {"", "-1", "+4", " 4", "abc", "1x", "3.5", "0x10",
                          "18446744073709551616"}) {
    expect_rejected([&] { return parse_u64("--cf", bad); }, "--cf", bad);
  }
  // Narrowing: 2^32 fits the parser but not a 32-bit field.
  expect_rejected(
      [] { return parse_u64("--cf", "4294967296", std::numeric_limits<std::uint32_t>::max()); },
      "--cf", "4294967296");
  expect_rejected([] { return parse_u64("COOLPIM_JOBS", "1025", 1024); }, "COOLPIM_JOBS",
                  "1025");
}

TEST(ParseDouble, AcceptsFiniteNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("--target", "1.3"), 1.3);
  EXPECT_DOUBLE_EQ(parse_double("--target", "-2"), -2.0);  // sign checks are the caller's
  EXPECT_DOUBLE_EQ(parse_double("--target", "1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_double("--target", "0"), 0.0);
}

TEST(ParseDouble, RejectsGarbageTrailingTextAndNonFiniteValues) {
  for (const char* bad : {"", "abc", "1.3x", "10ms", "nan", "inf", "-inf", "1e999"}) {
    expect_rejected([&] { return parse_double("--target", bad); }, "--target", bad);
  }
}

}  // namespace
}  // namespace coolpim
