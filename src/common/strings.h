// Small string-formatting helpers used across the library.
//
// libstdc++ 12 does not ship std::format, so we provide a checked
// snprintf wrapper plus the handful of helpers the table printers need.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace bfpp {

namespace detail {

// vsnprintf into a std::string, in the C locale. The body of str_format
// and of the failing path of check()/check_config().
std::string vstr_format(const char* fmt, std::va_list args);

}  // namespace detail

// vsnprintf into a std::string. The result is exact (no truncation) and
// locale-independent (always C-locale number formatting). A real
// varargs function rather than a template so BFPP_PRINTF_LIKE applies:
// the compiler rejects specifier/argument mismatches at the call site
// instead of silently formatting garbage at runtime. It serves error
// messages and tables; the Report and serve emitters write through
// common/writer.h instead.
std::string str_format(const char* fmt, ...) BFPP_PRINTF_LIKE(1, 2);

// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

// ASCII lowercase copy (used by the name/enum parsers).
std::string to_lower(std::string s);

// Strict non-negative decimal integer parse: digits only (no sign,
// whitespace or suffix), value representable as int. Returns nullopt on
// any violation — including overflow — instead of throwing, so callers
// (CLI flags, registry name suffixes) attach their own context. Never
// raises std::invalid_argument/std::out_of_range the way bare std::stoi
// does.
std::optional<int> parse_int(const std::string& text);

// Splits on runs of whitespace, dropping empty tokens.
std::vector<std::string> split_ws(const std::string& s);

// Splits on `sep`, dropping empty tokens ("a,,b" -> {"a", "b"}).
std::vector<std::string> split(const std::string& s, char sep);

// Human-readable byte count, e.g. "15.96 GB" (decimal units, matching the
// paper's tables which report GB).
std::string format_bytes(double bytes);

// Human-readable flop/s, e.g. "36.3 Tflop/s".
std::string format_flops(double flops_per_s);

// Seconds with adaptive unit (ns/us/ms/s), used by timeline printers.
std::string format_time(double seconds);

// Formats `x` with `digits` significant decimal places, trimming trailing
// zeros ("42.77", "8", "0.5").
std::string format_number(double x, int digits = 2);

// The strerror message for `err`, via the thread-safe
// std::generic_category().message() (std::strerror shares one static
// buffer across threads - flagged by clang-tidy concurrency-mt-unsafe -
// and the server formats errno messages from concurrent sessions).
std::string errno_string(int err);

}  // namespace bfpp
