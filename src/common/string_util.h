#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fexiot {

/// \brief Splits \p text on \p sep, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// \brief Splits \p text on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// \brief Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// \brief ASCII lower-cases \p text.
std::string ToLower(std::string_view text);

/// \brief Strips leading/trailing whitespace.
std::string Trim(std::string_view text);

/// \brief True if \p text starts with \p prefix.
bool StartsWith(std::string_view text, std::string_view prefix);

/// \brief True if \p text ends with \p suffix.
bool EndsWith(std::string_view text, std::string_view suffix);

/// \brief True if \p haystack contains \p needle.
bool Contains(std::string_view haystack, std::string_view needle);

/// \brief Formats a double with fixed precision.
std::string FormatDouble(double value, int precision = 3);

}  // namespace fexiot
