#ifndef HIERARQ_UTIL_STRINGS_H_
#define HIERARQ_UTIL_STRINGS_H_

/// \file strings.h
/// \brief Small string helpers used by the query/database text parsers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hierarq/util/result.h"

namespace hierarq {

/// Removes ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on `sep` at top nesting level only: separators inside balanced
/// parentheses are ignored. Used to split atom lists like "R(A,B), S(A,C)".
std::vector<std::string> SplitTopLevel(std::string_view s, char sep);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a decimal (optionally signed) 64-bit integer; the whole string
/// must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a finite floating-point number; the whole string must be
/// consumed. "nan", "inf" and their spellings are rejected.
Result<double> ParseDouble(std::string_view s);

/// True iff `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_']*.
bool IsIdentifier(std::string_view s);

/// True iff `s` starts with an uppercase letter (query-variable convention).
bool LooksLikeVariable(std::string_view s);

}  // namespace hierarq

#endif  // HIERARQ_UTIL_STRINGS_H_
