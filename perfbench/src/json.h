// Minimal JSON writer for the benchmark's record and result lines.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>

namespace perfbench {

class Json {
 public:
  Json& open(char c) {
    sep();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  Json& key(const std::string& k) {
    sep();
    str(k);
    out_ += ':';
    first_ = true;
    return *this;
  }
  Json& value(const std::string& s) {
    sep();
    str(s);
    return *this;
  }
  Json& value(const char* s) { return value(std::string(s)); }
  Json& value(bool b) {
    sep();
    out_ += b ? "true" : "false";
    return *this;
  }
  Json& value(double v) {
    sep();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(long long v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(static_cast<long long>(v)); }
  Json& value(std::size_t v) { return value(static_cast<long long>(v)); }
  template <class T>
  Json& kv(const std::string& k, const T& v) {
    return key(k).value(v);
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void sep() {
    if (!first_ && !out_.empty() && out_.back() != ':') out_ += ',';
    first_ = false;
  }
  void str(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool first_ = true;
};

}  // namespace perfbench
