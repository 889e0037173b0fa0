#include "common/writer.h"

#include <charconv>

#include "common/error.h"

namespace bfpp {

Writer& Writer::csv(std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) return raw(s);
  out_.push_back('"');
  for (const char c : s) {
    if (c == '"') out_.push_back('"');
    out_.push_back(c);
  }
  out_.push_back('"');
  return *this;
}

Writer& Writer::integer(int64_t x) {
  separate();
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, x).ptr;
  out_.append(buf, end);
  return *this;
}

Writer& Writer::uinteger(uint64_t x) {
  separate();
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, x).ptr;
  out_.append(buf, end);
  return *this;
}

Writer& Writer::real(double x, int precision) {
  separate();
  // Longest %.17g: sign, 17 digits, point, "e-308".
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general,
                    precision)
          .ptr;
  out_.append(buf, end);
  return *this;
}

Writer& Writer::string(std::string_view s) {
  separate();
  static constexpr char kHex[] = "0123456789abcdef";
  out_.push_back('"');
  size_t run = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out_.append("\\\"");
        break;
      case '\\':
        out_.append("\\\\");
        break;
      case '\n':
        out_.append("\\n");
        break;
      case '\t':
        out_.append("\\t");
        break;
      default:
        out_.append("\\u00");
        out_.push_back(kHex[c >> 4]);
        out_.push_back(kHex[c & 0xF]);
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_.push_back('"');
  return *this;
}

Writer& Writer::boolean(bool b) {
  separate();
  out_.append(b ? "true" : "false");
  return *this;
}

Writer& Writer::null() {
  separate();
  out_.append("null");
  return *this;
}

Writer& Writer::begin_object(int depth) {
  separate();
  const int parent = open_ > 0 ? frames_[open_ - 1].depth : 0;
  push(/*array=*/false, depth == kNested ? parent + 1 : depth);
  out_.push_back('{');
  return *this;
}

Writer& Writer::end_object() {
  const Frame& frame = frames_[--open_];
  if (!frame.first) newline(frame.depth - 1);
  out_.push_back('}');
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  const int parent = open_ > 0 ? frames_[open_ - 1].depth : 0;
  push(/*array=*/true, parent);
  out_.push_back('[');
  return *this;
}

Writer& Writer::end_array() {
  --open_;
  out_.push_back(']');
  return *this;
}

Writer& Writer::key(std::string_view name) {
  Frame& frame = frames_[open_ - 1];
  if (!frame.first) out_.push_back(',');
  frame.first = false;
  newline(frame.depth);
  // Member names are the emitters' own literals: no escaping needed.
  out_.push_back('"');
  out_.append(name);
  out_.append(indent_ > 0 ? "\": " : "\":");
  return *this;
}

void Writer::separate() {
  if (open_ == 0) return;
  Frame& frame = frames_[open_ - 1];
  if (!frame.array) return;  // object values follow their key()
  if (!frame.first) out_.push_back(',');
  frame.first = false;
}

void Writer::newline(int depth) {
  if (indent_ <= 0) return;
  out_.push_back('\n');
  out_.append(static_cast<size_t>(depth * indent_), ' ');
}

Writer::Frame& Writer::push(bool array, int depth) {
  check(open_ < kMaxFrames, "writer: nesting deeper than %d levels",
        kMaxFrames);
  Frame& frame = frames_[open_++];
  frame = Frame{depth, array, true};
  return frame;
}

}  // namespace bfpp
