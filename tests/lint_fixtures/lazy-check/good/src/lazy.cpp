// The lazy idiom: the format and cheap arguments go to the check, which
// formats them only on failure. Mentions of the eager builders in
// comments - check(x, str_format("...")) - and in string literals do
// not count, nor do the checks' own declarations.
#include <string>

namespace fixture {

void check(bool condition, const char* fmt, ...);
void check_config(bool condition, const char* fmt, ...);

void validate(int stage, int n_stages, const std::string& name) {
  check(stage < n_stages, "schedule: stage %d out of range", stage);
  check_config(!name.empty(), "name '%s' must not be empty (not str_format(x))",
               name.c_str());
  check_config(n_stages % 2 == 0, "err(: a literal, not a call");
}

std::string label(int stage) {
  // A built string outside any check is fine.
  return std::string("stage ") + std::to_string(stage);
}

void open_socket(int fd) {
  if (fd < 0) throw std::runtime_error(str_format("socket: %d", fd));
  check_config(fd != 0, "socket: fd %d is stdin", fd);
}

}  // namespace fixture
