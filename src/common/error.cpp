#include "common/error.h"

#include <cstdarg>

#include "common/strings.h"

namespace bfpp {

void check(bool condition, const char* fmt, ...) {
  if (condition) return;
  va_list args;
  va_start(args, fmt);
  std::string message = detail::vstr_format(fmt, args);
  va_end(args);
  throw Error(message);
}

void check_config(bool condition, const char* fmt, ...) {
  if (condition) return;
  va_list args;
  va_start(args, fmt);
  std::string message = detail::vstr_format(fmt, args);
  va_end(args);
  throw ConfigError(message);
}

}  // namespace bfpp
