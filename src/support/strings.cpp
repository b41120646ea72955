#include "support/strings.h"

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cstdlib>

#include "support/assert.h"

namespace qfs {

namespace {
/// Largest precision append_double accepts (its buffer is sized for it).
constexpr int kMaxFormatPrecision = 17;

/// Levenshtein distance, one DP row (small inputs only).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t next = std::min({row[j] + 1, row[j - 1] + 1,
                                   diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}
}  // namespace

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

void append_double(std::string& out, double value, int precision) {
  QFS_ASSERT_MSG(0 <= precision && precision <= kMaxFormatPrecision,
                 "format precision out of range");
  // Room for -DBL_MAX in fixed notation: sign, 309 integer digits, point
  // and the decimals.
  char buf[2 + DBL_MAX_10_EXP + 1 + kMaxFormatPrecision];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::fixed, precision);
  QFS_ASSERT_MSG(ec == std::errc(), "fixed-notation buffer too small");
  out.append(buf, end);
}

std::string format_double(double value, int precision) {
  std::string out;
  append_double(out, value, precision);
  return out;
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  // std::from_chars for double is available in GCC 12.
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

std::string closest_match(std::string_view s,
                          const std::vector<std::string>& candidates) {
  std::size_t best = 4;  // only suggest reasonably close matches
  std::string suggestion;
  for (const std::string& candidate : candidates) {
    std::size_t d = edit_distance(s, candidate);
    if (d < best) {
      best = d;
      suggestion = candidate;
    }
  }
  return suggestion;
}

}  // namespace qfs
