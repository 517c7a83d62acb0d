#ifndef QGP_COMMON_STRING_UTIL_H_
#define QGP_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qgp {

/// Splits `s` on any ASCII whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a signed integer; returns false on any malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double; returns false on any malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Lowercases ASCII letters.
std::string AsciiToLower(std::string_view s);

}  // namespace qgp

#endif  // QGP_COMMON_STRING_UTIL_H_
