// Small string utilities shared across qfs (no std::format in GCC 12).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace qfs {

/// Strip leading and trailing ASCII whitespace (what isspace matches in
/// the C locale). Inline: parsers call it for every token.
inline std::string_view trim(std::string_view s) {
  const auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

/// Split on a delimiter character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.starts_with(prefix);
}

/// Append the fixed-precision decimal rendering of a double (the bytes of
/// printf %.*f, for every finite value and inf/nan) to `out`. The one
/// double formatter: format_double and the QASM writer both use it.
/// Precondition: 0 <= precision <= 17.
void append_double(std::string& out, double value, int precision);

/// append_double into a fresh string.
std::string format_double(double value, int precision);

/// Parse helpers returning false on malformed input instead of throwing.
inline bool parse_int(std::string_view s, int& out) {
  s = trim(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}
bool parse_double(std::string_view s, double& out);

/// The candidate closest to `s` within Levenshtein edit distance 3 (the
/// first one on a tie), or "" when nothing is close enough to suggest: the
/// one did-you-mean behind every unknown flag, field, device and parameter.
std::string closest_match(std::string_view s,
                          const std::vector<std::string>& candidates);

}  // namespace qfs
