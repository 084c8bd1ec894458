// Hierarchical counter/gauge registry with per-epoch snapshots.
//
// Counters are monotonic event tallies ("gpu/kernel_launches"); gauges are
// sampled instantaneous values ("thermal/peak_dram_c").  Names are
// slash-separated paths whose first segment is the owning subsystem -- the
// same category vocabulary the trace schema uses (docs/OBSERVABILITY.md).
//
// Like StatSet, there is no global registry: each simulation run owns one
// CounterRegistry (via obs::RunObserver) and the sweep writer aggregates
// explicitly in experiment order, which is what makes counter files
// byte-identical at any --jobs value.  Storage is node-based (std::map), so
// references returned by counter()/gauge() stay valid for the registry's
// lifetime and hot loops can look a name up once and keep the reference.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace coolpim::obs {

/// Monotonic event counter.
class CounterCell {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_{0};
};

/// Last-written instantaneous value.
class GaugeCell {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0.0};
};

class CounterRegistry {
 public:
  /// Ordered (name -> value) view; counters render exactly, gauges as their
  /// last value.  Map keys are "kind/name" with counters and gauges kept
  /// apart so a name collision between the two kinds cannot alias.
  using Snapshot = std::map<std::string, double>;

  struct Mark {
    Time when;
    Snapshot values;
  };

  CounterCell& counter(std::string_view name) { return counters_[std::string{name}]; }
  GaugeCell& gauge(std::string_view name) { return gauges_[std::string{name}]; }

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Record a timestamped snapshot of every entry (one per simulation epoch
  /// in the full-system model).
  void mark(Time now) { marks_.push_back(Mark{now, snapshot()}); }

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }
  [[nodiscard]] bool empty() const { return counters_.empty() && gauges_.empty(); }

 private:
  std::map<std::string, CounterCell> counters_;
  std::map<std::string, GaugeCell> gauges_;
  std::vector<Mark> marks_;
};

}  // namespace coolpim::obs
