// Error handling for the bfpp library.
//
// All precondition / invariant violations throw bfpp::Error. We use
// exceptions (not status codes) because configuration errors are rare,
// unrecoverable at the call site, and carry a human-readable explanation
// that the autotuner surfaces when it rejects a configuration.
#pragma once

#include <stdexcept>
#include <string>

// Marks a varargs function as printf-like so the compiler type-checks
// format string against arguments at every call site (-Wformat).
#if defined(__GNUC__) || defined(__clang__)
#define BFPP_PRINTF_LIKE(fmt_index, first_arg) \
  __attribute__((format(printf, fmt_index, first_arg)))
#else
#define BFPP_PRINTF_LIKE(fmt_index, first_arg)
#endif

namespace bfpp {

// Base exception for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Thrown when a requested parallel configuration is structurally invalid
// (e.g. stages do not divide layers). The autotuner catches this to prune
// the search space, so it must be distinguishable from logic bugs.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

// Thrown for a malformed command-line flag *value* (e.g. `--pp eight`,
// or an out-of-range `--port 99999999999`). A ConfigError so every
// existing catch site treats it as the configuration error it is, but
// distinguishable so the CLI driver can exit 2 (bad invocation) instead
// of 1.
class UsageError : public ConfigError {
 public:
  explicit UsageError(const std::string& what) : ConfigError(what) {}
};

// Thrown by the memory model / runtime when a configuration does not fit
// in device memory. Also caught (and counted) by the autotuner.
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what) : Error(what) {}
};

// Throws Error with the printf-formatted message when `condition` is
// false. The message is formatted only on failure, so a passing check
// costs a compare and a call: hot loops (schedule::validate, the JSON
// parser) check per op or per byte. Arguments are still evaluated on
// every call, so pass cheap ones (c_str(), ints), never a built string;
// bfpp-lint's lazy-check pass enforces that. Input text always goes in
// as a "%s" argument, never as the format.
void check(bool condition, const char* fmt, ...) BFPP_PRINTF_LIKE(2, 3);

// Same, throwing ConfigError.
void check_config(bool condition, const char* fmt, ...)
    BFPP_PRINTF_LIKE(2, 3);

}  // namespace bfpp
