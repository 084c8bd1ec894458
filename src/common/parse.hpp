// Checked numeric parsing for every command-line and environment knob.
//
// The C library's atoi/atof family silently maps garbage to 0, and strtoull
// accepts a sign (wrapping "-1" to 2^64-1) and saturates on overflow.  These
// helpers reject all of that and throw ConfigError naming the flag or
// environment variable the text came from, so every entry point reports a bad
// value the same way instead of running with a value nobody asked for.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace coolpim {

/// Decimal integer in [0, max].  Rejects a leading non-digit (sign, space),
/// trailing text, overflow, and any value above `max` -- pass the largest
/// value the target field can hold so narrowing can never wrap.
inline std::uint64_t parse_u64(std::string_view name, const char* text,
                               std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!(*text >= '0' && *text <= '9' && *end == '\0')) {
    throw ConfigError(std::string{name} + ": expected a non-negative integer, got '" + text +
                      "'");
  }
  if (errno == ERANGE || v > max) {
    throw ConfigError(std::string{name} + ": '" + text + "' is out of range (at most " +
                      std::to_string(max) + ")");
  }
  return v;
}

/// Finite decimal number with nothing trailing ("nan", "inf" and "1x" throw).
inline double parse_double(std::string_view name, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    throw ConfigError(std::string{name} + ": expected a number, got '" + text + "'");
  }
  return v;
}

}  // namespace coolpim
