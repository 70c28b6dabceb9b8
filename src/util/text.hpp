// Small text-building helpers (GCC 12 lacks <format>, so we provide the
// handful of formatting operations the library needs).
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace ptecps::util {

/// Concatenate any streamable arguments into a string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// Fixed-precision rendering of a double (e.g. fmt_double(1.5, 2) == "1.50").
std::string fmt_double(double value, int precision);

/// Render a double compactly: fixed precision with trailing zeros removed
/// ("3", "3.5", "0.125").  Used for automaton labels and tables.
std::string fmt_compact(double value, int max_precision = 6);

/// Join the elements of `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Split `s` at every occurrence of `sep` (keeps empty fields).
std::vector<std::string> split(const std::string& s, char sep);

/// True iff `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Left-pad (`right_align`) or right-pad `s` with spaces to `width`.
std::string pad(const std::string& s, std::size_t width, bool right_align = false);

/// Replace every occurrence of `from` in `s` with `to`.
std::string replace_all(std::string s, const std::string& from, const std::string& to);

}  // namespace ptecps::util
