// Every check below builds its message before the condition is known.
#include <string>

namespace fixture {

void validate(int stage, int n_stages, const std::string& name) {
  check(stage < n_stages,
        str_format("schedule: stage %d out of range", stage));
  bfpp::check_config(!name.empty(), std::string("empty name"));
  check_config(stage >= 0, "stage " + std::to_string(stage));
}

struct Parser {
  void peek() { check_config(pos_ < size_, err("unexpected end of input")); }
  unsigned long pos_ = 0;
  unsigned long size_ = 0;
};

void open_socket(int fd) {
  check_config(fd >= 0, "socket: %s", errno_string(errno).c_str());
}

}  // namespace fixture
