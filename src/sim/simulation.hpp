// Simulation kernel: owns the clock and the event queue, drives components.
//
// This is the stand-in for SST in the paper's infrastructure.  Components
// register periodic ticks or schedule one-shot events; the kernel runs the
// event loop until a stop condition.  Single-threaded and deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace coolpim::sim {

class Simulation {
 public:
  Simulation() = default;

  [[nodiscard]] Time now() const { return now_; }

  /// Attach observability (docs/OBSERVABILITY.md): a span per dispatched
  /// event plus a queue-depth counter sample, category "sim".  Both hooks are
  /// read-only and null by default (zero overhead, results unperturbed).
  void set_observer(obs::Trace trace, obs::CounterRegistry* counters = nullptr) {
    trace_ = trace;
    counters_ = counters;
  }

  /// One-shot event after a delay from now.
  void schedule_in(Time delay, EventAction action) {
    queue_.schedule(now_ + delay, std::move(action));
  }

  /// One-shot event at an absolute time.
  void schedule_at(Time t, EventAction action) { queue_.schedule(t, std::move(action)); }

  /// Periodic callback every `period`, starting at now + period.  The
  /// callback returns true to keep ticking, false to cancel.
  void schedule_periodic(Time period, std::function<bool()> tick);

  /// Run until the queue drains or `deadline` passes, whichever is first.
  /// Returns the simulated time reached.
  Time run_until(Time deadline);

  /// Run until the queue drains completely.
  Time run_to_completion() { return run_until(Time::max()); }

  /// Request the event loop to stop after the current event.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }
  [[nodiscard]] bool pending() const { return !queue_.empty(); }

 private:
  EventQueue queue_;
  Time now_{Time::zero()};
  bool stop_requested_{false};
  std::uint64_t events_processed_{0};
  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::sim
