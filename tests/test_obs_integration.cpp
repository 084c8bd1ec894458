// End-to-end observability tests: the determinism contract (trace and counter
// files byte-identical at jobs=1 vs jobs=8), the non-perturbation contract
// (bit-identical RunResults with and without an observer attached), and a
// golden trace smoke test (output parses as JSON, spans nest, every
// instrumented subsystem category is present).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "runner/experiment.hpp"

namespace coolpim {
namespace {

// --- minimal JSON validator -------------------------------------------------
// Recursive-descent scanner: accepts exactly the JSON grammar (values,
// objects, arrays, strings with escapes, numbers, literals).  Enough to
// assert "a trace viewer's parser will not reject this file" without pulling
// in a JSON dependency.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_{text} {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string_view{"\"\\/bfnrt"}.find(e) == std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_{0};
};

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// -----------------------------------------------------------------------------

class ObsIntegration : public ::testing::Test {
 protected:
  static const sys::WorkloadSet& set() {
    static const sys::WorkloadSet s{12, 1};
    return s;
  }

  static std::vector<runner::Experiment> experiments() {
    std::vector<runner::Experiment> out;
    for (const auto* w : {"dc", "pagerank"}) {
      for (const auto s : {sys::Scenario::kNaiveOffloading, sys::Scenario::kCoolPimHw,
                           sys::Scenario::kCoolPimSw}) {
        runner::Experiment e;
        e.workload = w;
        e.config.scenario = s;
        out.push_back(e);
      }
    }
    return out;
  }

  struct SweepFiles {
    std::string trace;
    std::string counters;
    std::vector<sys::RunResult> results;
  };

  static SweepFiles observed_sweep(unsigned jobs,
                                   const std::vector<runner::Experiment>& exps = experiments()) {
    obs::SweepObserver observer{/*want_trace=*/true, /*want_counters=*/true};
    runner::RunOptions opt;
    opt.jobs = jobs;
    opt.obs = &observer;
    SweepFiles out;
    out.results = runner::run_sweep(set(), exps, opt);
    std::ostringstream trace;
    observer.write_trace(trace);
    out.trace = trace.str();
    std::ostringstream counters;
    observer.write_counters_csv(counters);
    out.counters = counters.str();
    return out;
  }
};

TEST_F(ObsIntegration, TraceAndCountersByteIdenticalAcrossJobCounts) {
  const auto serial = observed_sweep(1);
  const auto wide = observed_sweep(8);
  EXPECT_EQ(serial.trace, wide.trace);
  EXPECT_EQ(serial.counters, wide.counters);
}

TEST_F(ObsIntegration, BackToBackSweepsWriteIdenticalFiles) {
  // A traced sweep's files depend only on the sweep, not on what the
  // process ran before it.  The experiments are ones no other test runs, so
  // the first sweep is also the first time this process sees them.
  std::vector<runner::Experiment> exps(2);
  exps[0].workload = "kcore";
  exps[1].workload = "bfs-ta";
  for (auto& e : exps) e.config.scenario = sys::Scenario::kCoolPimHw;
  const auto first = observed_sweep(2, exps);
  const auto second = observed_sweep(2, exps);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.counters, second.counters);
}

TEST_F(ObsIntegration, ObserverDoesNotPerturbResults) {
  runner::RunOptions plain;
  plain.jobs = 2;
  const auto bare = runner::run_sweep(set(), experiments(), plain);

  obs::SweepObserver observer{true, true};
  runner::RunOptions observed = plain;
  observed.obs = &observer;
  const auto traced = runner::run_sweep(set(), experiments(), observed);

  ASSERT_EQ(bare.size(), traced.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    SCOPED_TRACE(bare[i].workload + " / " + bare[i].scenario);
    // Bit-identical, not merely close: the recording path must be read-only.
    EXPECT_EQ(bare[i].exec_time, traced[i].exec_time);
    EXPECT_EQ(bare[i].link_data_bytes, traced[i].link_data_bytes);
    EXPECT_EQ(bare[i].pim_ops, traced[i].pim_ops);
    EXPECT_EQ(bare[i].host_atomics, traced[i].host_atomics);
    EXPECT_EQ(bare[i].peak_dram_temp.value(), traced[i].peak_dram_temp.value());
    EXPECT_EQ(bare[i].thermal_warnings, traced[i].thermal_warnings);
    EXPECT_EQ(bare[i].cube_energy_j, traced[i].cube_energy_j);
    EXPECT_EQ(bare[i].shut_down, traced[i].shut_down);
  }
}

TEST_F(ObsIntegration, GoldenTraceSmoke) {
  const auto files = observed_sweep(4);

  // 1. The file is JSON a trace viewer will accept.
  JsonScanner scanner{files.trace};
  EXPECT_TRUE(scanner.valid());
  EXPECT_EQ(files.trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);

  // 2. Spans nest: every begin has an end.
  EXPECT_EQ(count_occurrences(files.trace, "\"ph\":\"B\""),
            count_occurrences(files.trace, "\"ph\":\"E\""));
  EXPECT_GT(count_occurrences(files.trace, "\"ph\":\"B\""), 0u);

  // 3. Every instrumented subsystem shows up (the schema catalogue in
  //    docs/OBSERVABILITY.md -- this is its enforcement point).
  for (const auto* cat : {"runner", "sim", "thermal", "core", "hmc", "gpu", "sys"}) {
    SCOPED_TRACE(cat);
    EXPECT_NE(files.trace.find("\"cat\":\"" + std::string{cat} + "\""), std::string::npos);
  }

  // 4. One metadata track per task, in submission order.
  EXPECT_EQ(count_occurrences(files.trace, "\"ph\":\"M\""), experiments().size());
  EXPECT_LT(files.trace.find("dc / "), files.trace.find("pagerank / "));

  // 5. Counters CSV carries the headline counters for every task.
  EXPECT_EQ(files.counters.find("task,workload,scenario,t_ms,kind,counter,value\n"), 0u);
  for (const auto* name :
       {"counter,sys/epochs", "counter,thermal/steps", "counter,gpu/pim_ops",
        "counter,hmc/served_pim_ops", "gauge,thermal/peak_dram_c"}) {
    SCOPED_TRACE(name);
    EXPECT_NE(files.counters.find(name), std::string::npos);
  }
}

TEST_F(ObsIntegration, RunnerTaskSpanCarriesIdentity) {
  obs::SweepObserver observer{true, false};
  runner::RunOptions opt;
  opt.jobs = 1;
  opt.obs = &observer;
  (void)runner::run_one(set(), "dc", sys::Scenario::kCoolPimHw, {}, opt);

  std::ostringstream os;
  observer.write_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"name\":\"task\""), std::string::npos);
  EXPECT_NE(trace.find("\"workload\":\"dc\""), std::string::npos);
  // Key and seed render as 16-digit hex strings (JSON numbers would lose
  // precision past 2^53 in viewers).
  EXPECT_NE(trace.find("\"key\":\""), std::string::npos);
  EXPECT_NE(trace.find("\"seed\":\""), std::string::npos);
}

}  // namespace
}  // namespace coolpim
