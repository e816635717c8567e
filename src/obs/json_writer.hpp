// Minimal streaming JSON writer used by the telemetry exporters.
//
// Comma placement is tracked automatically per nesting level, so exporters
// just call key()/value() in order. Output is compact (no pretty-printing);
// both Perfetto and the bench post-processing scripts parse it fine.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace paramount::obs {

class JsonWriter {
 public:
  std::string take() && {
    PM_CHECK_MSG(depth_.empty(), "unclosed JSON container");
    return std::move(out_);
  }

  const std::string& str() const { return out_; }

  JsonWriter& begin_object() {
    comma();
    out_.push_back('{');
    depth_.push_back(false);
    return *this;
  }
  JsonWriter& end_object() {
    pop();
    out_.push_back('}');
    return *this;
  }
  JsonWriter& begin_array() {
    comma();
    out_.push_back('[');
    depth_.push_back(false);
    return *this;
  }
  JsonWriter& end_array() {
    pop();
    out_.push_back(']');
    return *this;
  }

  JsonWriter& key(const char* name) {
    comma();
    append_string(name);
    out_.push_back(':');
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::uint64_t v) { return integer(v); }
  JsonWriter& value(std::int64_t v) { return integer(v); }
  JsonWriter& value(double v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(const char* v) {
    comma();
    append_string(v);
    return *this;
  }
  JsonWriter& value(const std::string& v) { return value(v.c_str()); }

 private:
  // Emits the separating comma unless this is the first element of the
  // current container or the value right after a key.
  void comma() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!depth_.empty()) {
      if (depth_.back()) out_.push_back(',');
      depth_.back() = true;
    }
  }

  template <typename Int>
  JsonWriter& integer(Int v) {
    comma();
    char buf[24];  // 20 digits and a sign fit
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return *this;
  }

  void pop() {
    PM_CHECK_MSG(!depth_.empty(), "JSON container underflow");
    depth_.pop_back();
  }

  void append_string(const char* s) {
    out_.push_back('"');
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_.push_back(static_cast<char>(c));
          }
      }
    }
    out_.push_back('"');
  }

  std::string out_;
  std::vector<bool> depth_;  // per level: "a previous element exists"
  bool pending_key_ = false;
};

}  // namespace paramount::obs
