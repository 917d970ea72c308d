// Strict numeric parsing of text read from outside the program (workload
// specs, flight-recorder journals).
//
// A token parses only when the whole of it is one decimal number of the
// target type: no surrounding whitespace, no trailing characters, no sign
// on an unsigned type, no value out of range, and no inf/nan.
#ifndef QS_COMMON_PARSE_H
#define QS_COMMON_PARSE_H

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace qs {

/// Parses `token` as a T, or throws std::runtime_error naming `who` (the
/// parser) and `line` (the input the token came from).
template <typename T>
T parse_number(const std::string& token, const char* who,
               const std::string& line) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  bool ok = ec == std::errc() && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok)
    throw std::runtime_error(std::string(who) + ": bad number '" + token +
                             "' in: " + line);
  return value;
}

}  // namespace qs

#endif  // QS_COMMON_PARSE_H
