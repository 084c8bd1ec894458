// Shared infrastructure for the perf-benchmark harness (perf_thermal,
// perf_sim): a monotonic stopwatch and a minimal JSON emitter for the
// BENCH_*.json result files validated by tools/check_bench.py.
//
// The perf binaries time whole kernel passes with std::chrono so the
// measured quantity (ns/cell-substep, events/sec, end-to-end wall time) maps
// one-to-one onto a JSON field with no statistical post-processing in
// between.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace coolpim::bench {

/// Wall-clock stopwatch on the monotonic clock.
class StopWatch {
 public:
  StopWatch() : start_{std::chrono::steady_clock::now()} {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double elapsed_sec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_ms() const { return elapsed_sec() * 1e3; }
  [[nodiscard]] double elapsed_ns() const { return elapsed_sec() * 1e9; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal streaming JSON writer -- enough for the flat BENCH_*.json schema.
/// Keys are emitted in call order; numbers are finite (non-finite values are
/// serialized as null so the validator can flag them).
class JsonWriter {
 public:
  JsonWriter() { open('{'); }

  void begin_object(const std::string& key) {
    prefix(key);
    open('{');
  }
  void begin_array(const std::string& key) {
    prefix(key);
    open('[');
  }
  void begin_object() {  // anonymous, for array elements
    element();
    open('{');
  }
  void end() {
    const char c = stack_.back();
    stack_.pop_back();
    out_ << (c == '{' ? '}' : ']');
  }

  void kv(const std::string& key, double v) {
    prefix(key);
    number(v);
  }
  void kv(const std::string& key, std::uint64_t v) {
    prefix(key);
    out_ << v;
  }
  void kv(const std::string& key, int v) {
    prefix(key);
    out_ << v;
  }
  void kv(const std::string& key, bool v) {
    prefix(key);
    out_ << (v ? "true" : "false");
  }
  void kv(const std::string& key, const std::string& v) {
    prefix(key);
    quote(v);
  }
  void kv(const std::string& key, const char* v) { kv(key, std::string{v}); }

  /// Close any open containers (including the root) and return the document.
  [[nodiscard]] std::string str() {
    while (!stack_.empty()) end();
    out_ << '\n';
    return out_.str();
  }

 private:
  void open(char c) {
    stack_.push_back(c);
    first_.push_back(true);
    out_ << c;
  }
  void element() {
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }
  void prefix(const std::string& key) {
    element();
    if (stack_.back() == '{') {
      quote(key);
      out_ << ':';
    }
  }
  void number(double v) {
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    std::ostringstream tmp;
    tmp.precision(9);
    tmp << v;
    out_ << tmp.str();
  }
  void quote(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }

  std::ostringstream out_;
  std::vector<char> stack_;
  std::vector<bool> first_;

  // element() mutates first_.back(); std::vector<bool> references make that
  // awkward to read but are well-defined here (single-threaded, no aliasing).
};

/// Write `content` to `path`; returns false (and prints nothing) on failure.
inline bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Tiny argv helper: returns the value following `flag`, or `fallback`.
inline std::string arg_value(int argc, char** argv, const char* flag,
                             const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// True if `flag` appears in argv.
inline bool arg_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace coolpim::bench
