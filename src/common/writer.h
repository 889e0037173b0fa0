// Writer: the one append-only emitter behind every machine-readable
// output - Report JSON/CSV/wire forms, serve response lines and the
// ServeStats wire form. It appends to a caller-owned std::string and
// keeps nothing beyond the call that owns it.
//
// Numbers go through std::to_chars, which is locale-independent by
// construction. real(x, p) prints exactly what printf's "%.<p>g" prints
// in the C locale (the standard defines to_chars(general, p) that way),
// so the emitters' historical %.10g display and %.17g wire bytes hold.
//
// JSON structure: begin_object/end_object and begin_array/end_array
// track separators, key() writes a member name. With indent 0 (the
// default) the output is compact JSON with no whitespace at all - the
// serve line form. With indent n > 0 objects are pretty-printed, one
// member per line, n spaces per nesting level, `"key": value`; arrays
// always stay on one line.
//
//   std::string out;
//   Writer w(out);
//   w.begin_object().key("n").integer(3).key("x").real(0.25, 10);
//   w.end_object();  // out == {"n":3,"x":0.25}
//
// Unstructured appends (raw, put, csv) write no separators, which is
// how CSV rows and framed serve headers use the same writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace bfpp {

class Writer {
 public:
  explicit Writer(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  // Unstructured appends.
  Writer& raw(std::string_view s) {
    out_.append(s);
    return *this;
  }
  Writer& put(char c) {
    out_.push_back(c);
    return *this;
  }
  // A CSV cell: verbatim, or double-quoted (inner quotes doubled) when
  // it holds a comma, quote or line break.
  Writer& csv(std::string_view s);

  // Values. Inside an array each is preceded by its ',' separator.
  Writer& integer(int64_t x);
  Writer& uinteger(uint64_t x);
  Writer& real(double x, int precision);  // printf "%.<precision>g"
  Writer& string(std::string_view s);     // quoted and JSON-escaped
  Writer& boolean(bool b);
  Writer& null();

  // Structure. begin_object(depth) places the members of a pretty
  // object at nesting level `depth` instead of one below the enclosing
  // object (a layout the Report's pretty JSON has always used for the
  // objects inside "frugal"); compact output ignores it.
  static constexpr int kNested = -1;
  Writer& begin_object(int depth = kNested);
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view name);

 private:
  struct Frame {
    int depth = 0;  // nesting level of the members
    bool array = false;
    bool first = true;
  };
  static constexpr int kMaxFrames = 8;

  void separate();
  void newline(int depth);
  Frame& push(bool array, int depth);

  std::string& out_;
  int indent_;
  Frame frames_[kMaxFrames];
  int open_ = 0;
};

}  // namespace bfpp
