#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace freshsel {

/// Joins `parts` with `separator` ("a, b, c").
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Splits on `separator`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> Split(std::string_view text, char separator);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

/// Fixed-precision decimal rendering ("0.123").
std::string FormatDouble(double value, int precision = 4);

/// Number of '.'-separated segments in `name` when each is a non-empty run
/// of [a-z0-9_], else 0: "io.read" -> 2, "io..read" and "Io.read" -> 0.
/// The grammar of metric and failpoint names (obs/metrics.h,
/// fault/failpoint.h).
constexpr std::size_t DottedNameSegments(std::string_view name) {
  std::size_t segments = 1;
  bool segment_empty = true;
  for (const char c : name) {
    if (c == '.') {
      if (segment_empty) return 0;
      ++segments;
      segment_empty = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      segment_empty = false;
    } else {
      return 0;
    }
  }
  return segment_empty ? 0 : segments;
}

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace freshsel
