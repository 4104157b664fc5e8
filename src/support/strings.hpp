#ifndef HPLREPRO_SUPPORT_STRINGS_HPP
#define HPLREPRO_SUPPORT_STRINGS_HPP

/// \file strings.hpp
/// Small string utilities shared by the clc diagnostics, HPL code generator,
/// the benchmark table printers and the JSON exporters.

#include <string>
#include <string_view>
#include <vector>

namespace hplrepro {

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` at every occurrence of `sep` (keeps empty fields).
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Formats a double with `digits` significant digits, trimming trailing
/// zeros ("12.5", "0.00321", "257").
std::string format_double(double value, int digits = 4);

/// Renders a C literal for a double that round-trips exactly and is valid
/// OpenCL C source (always contains a '.', 'e', or inf/nan spelling).
std::string double_literal(double value);
std::string float_literal(float value);

/// Escapes `text` for a JSON string literal: quote, backslash and every
/// control character.
std::string json_escape(std::string_view text);

/// A JSON number with 12 significant digits; nan and inf render as 0, so
/// an exported document stays valid JSON.
std::string json_number(double value);

}  // namespace hplrepro

#endif  // HPLREPRO_SUPPORT_STRINGS_HPP
