#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace qgp {

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t begin = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
    if (i > begin) out.emplace_back(s.substr(begin, i - begin));
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  // std::from_chars<double> is not universally available with older
  // libstdc++; strtod on a NUL-terminated copy is portable.
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace qgp
