// Deterministic structured tracing in Chrome trace_event format.
//
// The observability layer records what the simulator did -- spans (begin/end
// or complete), instant events and counter samples -- stamped with *simulated*
// time, never wall-clock time.  Two consequences:
//
//  * Determinism: a trace of a given (workload, scenario, config, seed) is a
//    pure function of the simulation, so trace files are byte-identical
//    across reruns, thread counts and machines (tested in
//    tests/test_obs_integration.cpp).
//  * Non-perturbation: recording only ever *reads* model state.  A simulation
//    produces bit-identical results with tracing on or off; the contract is
//    documented in docs/OBSERVABILITY.md and DESIGN.md section 8.
//
// Components hold an `obs::Trace` handle.  A default-constructed handle is
// the null sink: every method is an inline pointer test that the branch
// predictor learns immediately, so disabled tracing costs nothing measurable
// on the hot path.  Callers that must *build* arguments should guard with
// `if (trace.enabled())` so the argument construction is skipped too.
//
// Event names and categories form a documented schema -- see
// docs/OBSERVABILITY.md for the full catalogue (categories: sim, thermal,
// core, hmc, gpu, sys, runner).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace coolpim::obs {

/// One key/value argument attached to a trace event.  Values are stored
/// pre-rendered; `number` selects bare vs quoted JSON emission.
struct TraceArg {
  TraceArg(std::string k, std::string v) : key{std::move(k)}, value{std::move(v)} {}
  TraceArg(std::string k, std::string_view v) : key{std::move(k)}, value{v} {}
  TraceArg(std::string k, const char* v) : key{std::move(k)}, value{v} {}
  TraceArg(std::string k, double v);
  TraceArg(std::string k, std::uint64_t v);
  TraceArg(std::string k, std::int64_t v);
  TraceArg(std::string k, std::uint32_t v) : TraceArg{std::move(k), std::uint64_t{v}} {}
  TraceArg(std::string k, int v) : TraceArg{std::move(k), std::int64_t{v}} {}
  TraceArg(std::string k, bool v) : key{std::move(k)}, value{v ? "true" : "false"}, number{true} {}

  std::string key;
  std::string value;
  bool number{false};
};

using TraceArgs = std::vector<TraceArg>;

/// One event in the Chrome trace_event JSON model.  `ts`/`dur` are simulated
/// time; the writer converts to the format's microsecond floats.
struct TraceEvent {
  char phase{'i'};  // 'B' begin, 'E' end, 'X' complete, 'i' instant, 'C' counter
  Time ts{Time::zero()};
  Time dur{Time::zero()};  // 'X' only
  std::string cat;
  std::string name;
  TraceArgs args;
};

/// Ordered event collector for one simulation run.  Single-threaded by
/// design: each parallel-runner task owns its own buffer (the same ownership
/// discipline as StatSet), and the sweep writer merges buffers in experiment
/// order so output is independent of scheduling.
class TraceBuffer {
 public:
  void begin(Time ts, std::string_view cat, std::string_view name, TraceArgs args = {});
  void end(Time ts);
  void complete(Time ts, Time dur, std::string_view cat, std::string_view name,
                TraceArgs args = {});
  void instant(Time ts, std::string_view cat, std::string_view name, TraceArgs args = {});
  void counter(Time ts, std::string_view cat, std::string_view name, double value);

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  /// Currently-unclosed begin() spans (0 for a well-formed finished run).
  [[nodiscard]] std::size_t open_spans() const { return open_; }

 private:
  std::vector<TraceEvent> events_;
  std::size_t open_{0};
};

/// Null-safe handle components record through.  Default-constructed = sink
/// disabled; every call degenerates to one predictable branch.
class Trace {
 public:
  Trace() = default;
  explicit Trace(TraceBuffer* buf) : buf_{buf} {}

  [[nodiscard]] bool enabled() const { return buf_ != nullptr; }

  void begin(Time ts, std::string_view cat, std::string_view name, TraceArgs args = {}) const {
    if (buf_) buf_->begin(ts, cat, name, std::move(args));
  }
  void end(Time ts) const {
    if (buf_) buf_->end(ts);
  }
  void complete(Time ts, Time dur, std::string_view cat, std::string_view name,
                TraceArgs args = {}) const {
    if (buf_) buf_->complete(ts, dur, cat, name, std::move(args));
  }
  void instant(Time ts, std::string_view cat, std::string_view name, TraceArgs args = {}) const {
    if (buf_) buf_->instant(ts, cat, name, std::move(args));
  }
  void counter(Time ts, std::string_view cat, std::string_view name, double value) const {
    if (buf_) buf_->counter(ts, cat, name, value);
  }

 private:
  TraceBuffer* buf_{nullptr};
};

/// RAII begin/end span over a caller-owned clock variable: reads the clock at
/// construction and again at destruction, so the span tracks however far the
/// enclosing scope advanced simulated time.
class ScopedSpan {
 public:
  ScopedSpan(Trace trace, const Time& clock, std::string_view cat, std::string_view name,
             TraceArgs args = {})
      : trace_{trace}, clock_{&clock} {
    trace_.begin(*clock_, cat, name, std::move(args));
  }
  ~ScopedSpan() { trace_.end(*clock_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace trace_;
  const Time* clock_;
};

/// One process track of a merged trace file (pid = track id; typically one
/// per runner task).
struct TraceTrack {
  std::uint32_t pid{0};
  std::string name;  // becomes the process_name metadata event
  const TraceBuffer* buffer{nullptr};
};

/// Emit `{"traceEvents": [...]}` JSON loadable by chrome://tracing and
/// Perfetto.  Timestamps are simulated microseconds; output is byte-stable
/// for a fixed input (fixed-precision formatting, no wall-clock anywhere).
void write_chrome_trace(std::ostream& os, const std::vector<TraceTrack>& tracks);

/// JSON string escaping for event names/args (exposed for tests).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace coolpim::obs
