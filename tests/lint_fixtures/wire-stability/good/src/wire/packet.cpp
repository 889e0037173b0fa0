// Fixture implementation: every member emitted in declaration order,
// every emitted key read back. It emits through a Writer, the idiom of
// src/ (the bad twin keeps the older concatenated-literal idiom, so the
// pass is proven on both).
#include "packet.h"

namespace mini {

namespace {
std::string wire_field(const std::string& text, const char* key) {
  (void)text;
  (void)key;
  return "0";
}
}  // namespace

std::string Packet::to_wire() const {
  std::string out;
  Writer w(out);
  w.begin_object().key("a").integer(a).key("b").real(b, 17).end_object();
  return out;
}

Packet Packet::from_wire(const std::string& text) {
  Packet p;
  p.a = std::stoi(wire_field(text, "a"));
  p.b = std::stod(wire_field(text, "b"));
  return p;
}

}  // namespace mini
