#include "hierarq/util/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace hierarq {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsSpace(s[begin])) {
    ++begin;
  }
  while (end > begin && IsSpace(s[end - 1])) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) {
  return std::string(TrimView(s));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(Trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitTopLevel(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  int depth = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || (s[i] == sep && depth == 0)) {
      out.push_back(Trim(s.substr(start, i - start)));
      start = i + 1;
      continue;
    }
    if (s[i] == '(') {
      ++depth;
    } else if (s[i] == ')') {
      --depth;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += pieces[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) {
    return Status::ParseError("empty integer literal");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer literal out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid integer literal: " + buf);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) {
    return Status::ParseError("empty float literal");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("float literal out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid float literal: " + buf);
  }
  // strtod accepts "nan" and "inf"; no weight or probability may be
  // either, and a NaN would pass every later clamp unchanged.
  if (!std::isfinite(value)) {
    return Status::ParseError("non-finite float literal: " + buf);
  }
  return value;
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) {
    return false;
  }
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '\'')) {
      return false;
    }
  }
  return true;
}

bool LooksLikeVariable(std::string_view s) {
  return IsIdentifier(s) && std::isupper(static_cast<unsigned char>(s[0]));
}

}  // namespace hierarq
