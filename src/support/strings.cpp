#include "support/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace hplrepro {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value, int digits) {
  std::ostringstream oss;
  oss.precision(digits);
  oss << value;
  return oss.str();
}

namespace {

// Shortest-round-trip style literal: try increasing precision until the
// printed form parses back to the same value.
std::string round_trip_literal(double value, int max_digits, bool is_float) {
  if (std::isnan(value)) return "nan(\"\")";
  if (std::isinf(value)) return value > 0 ? "(1.0/0.0)" : "(-1.0/0.0)";
  char buf[64];
  for (int prec = 1; prec <= max_digits; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, value);
    const double parsed = std::strtod(buf, nullptr);
    if ((is_float && static_cast<float>(parsed) ==
                         static_cast<float>(value)) ||
        (!is_float && parsed == value)) {
      break;
    }
  }
  std::string text = buf;
  // Ensure the token reads as a floating literal, not an integer.
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

}  // namespace

std::string double_literal(double value) {
  return round_trip_literal(value, 17, /*is_float=*/false);
}

std::string float_literal(float value) {
  return round_trip_literal(value, 9, /*is_float=*/true) + "f";
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

}  // namespace hplrepro
