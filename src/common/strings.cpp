#include "common/strings.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <limits>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <locale.h>
#endif

namespace bfpp {

namespace {

#if defined(__unix__) || defined(__APPLE__)

locale_t c_locale_handle() {
  static locale_t loc = newlocale(LC_ALL_MASK, "C", static_cast<locale_t>(0));
  return loc;
}

// RAII guard that switches the calling thread to the "C" locale, so that
// printf-style float formatting always uses '.' as the decimal separator
// regardless of the process locale.
class ScopedCLocale {
 public:
  ScopedCLocale() {
    locale_t loc = c_locale_handle();
    if (loc != static_cast<locale_t>(0)) previous_ = uselocale(loc);
  }
  ~ScopedCLocale() {
    if (previous_ != static_cast<locale_t>(0)) uselocale(previous_);
  }
  ScopedCLocale(const ScopedCLocale&) = delete;
  ScopedCLocale& operator=(const ScopedCLocale&) = delete;

 private:
  locale_t previous_ = static_cast<locale_t>(0);
};

#else  // no per-thread locales: snprintf already uses the global locale

struct ScopedCLocale {};

#endif

}  // namespace

namespace detail {

std::string vstr_format(const char* fmt, std::va_list args) {
  const ScopedCLocale c_locale;
  std::va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n <= 0) return {};
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

}  // namespace detail

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = detail::vstr_format(fmt, args);
  va_end(args);
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::optional<int> parse_int(const std::string& text) {
  if (text.empty()) return std::nullopt;
  long long value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
    if (value > std::numeric_limits<int>::max()) return std::nullopt;
  }
  return static_cast<int>(value);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::string format_bytes(double bytes) {
  if (bytes >= 1e12) return str_format("%.2f TB", bytes / 1e12);
  if (bytes >= 1e9) return str_format("%.2f GB", bytes / 1e9);
  if (bytes >= 1e6) return str_format("%.2f MB", bytes / 1e6);
  if (bytes >= 1e3) return str_format("%.2f KB", bytes / 1e3);
  return str_format("%.0f B", bytes);
}

std::string format_flops(double flops_per_s) {
  if (flops_per_s >= 1e15) return str_format("%.2f Pflop/s", flops_per_s / 1e15);
  if (flops_per_s >= 1e12) return str_format("%.2f Tflop/s", flops_per_s / 1e12);
  if (flops_per_s >= 1e9) return str_format("%.2f Gflop/s", flops_per_s / 1e9);
  return str_format("%.0f flop/s", flops_per_s);
}

std::string format_time(double seconds) {
  const double a = std::fabs(seconds);
  if (a >= 1.0) return str_format("%.3f s", seconds);
  if (a >= 1e-3) return str_format("%.3f ms", seconds * 1e3);
  if (a >= 1e-6) return str_format("%.3f us", seconds * 1e6);
  return str_format("%.1f ns", seconds * 1e9);
}

std::string format_number(double x, int digits) {
  std::string s = str_format("%.*f", digits, x);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string errno_string(int err) {
  return std::generic_category().message(err);
}

}  // namespace bfpp
