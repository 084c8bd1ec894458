// Resumable single-experiment run: System::run's epoch loop split into
// serve / thermal-step / control phases around an externally driven thermal
// stepper (DESIGN.md section 14).
//
// The epoch-coupled loop has exactly one point where the transient thermal
// solver advances -- `therm.step(step)` after the epoch's served traffic has
// been converted to power.  SystemRun inverts control at that point:
// advance() executes everything up to the next required thermal step and
// returns true with pending_dt() set; the caller performs the step and
// calls advance() again, which resumes with the post-step
// bookkeeping (counters, sensor, warning delivery, measurement).  advance()
// returns false when the run is complete.
//
// System::run drives it: each yield steps every cube's thermal model by
// pending_dt(), which at one cube executes the exact statement sequence of
// the pre-split monolithic loop, so results, counters and traces are
// byte-identical to it.  The phases stay resumable so a caller can time or
// inspect each one on its own (the repository benchmark times the thermal
// step apart from serve/control).
//
// N cubes (SystemConfig::cubes) are N slots of (backend, thermal model) in
// the same loop: each cube serves its share of the GPU's demand, the GPU
// commits at the slowest cube's pace, and the sensor, warnings, faults and
// shutdown handling see the hottest cube (DESIGN.md section 14).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "control/policy.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "gpu/engine.hpp"
#include "hmc/backend.hpp"
#include "obs/trace.hpp"
#include "sys/system.hpp"
#include "thermal/hmc_thermal.hpp"

namespace coolpim::sys {

namespace detail {

/// Delayed temperature sensor: reports the DRAM temperature `delay` ago.
class DelayedSensor {
 public:
  explicit DelayedSensor(Time delay, Celsius initial) : delay_{delay} {
    samples_.push_back({Time::zero(), initial});
  }

  void record(Time now, Celsius temp) {
    samples_.push_back({now, temp});
    // Drop everything older than we will ever need again.
    while (samples_.size() > 2 && samples_[1].when + delay_ <= now) samples_.pop_front();
  }

  [[nodiscard]] Celsius sensed(Time now) const {
    const Time target = now - delay_;
    Celsius best = samples_.front().temp;
    for (const auto& s : samples_) {
      if (s.when <= target) best = s.temp;
      else break;
    }
    return best;
  }

 private:
  struct Sample {
    Time when;
    Celsius temp;
  };
  Time delay_;
  std::deque<Sample> samples_;
};

}  // namespace detail

class SystemRun {
 public:
  /// Constructs the full run state -- engine, controller, thermal model --
  /// and performs the initial steady-state solve (no transient steps).
  SystemRun(SystemConfig cfg, const graph::WorkloadProfile& workload);

  /// Advance until the next thermal step is needed.  Returns true when the
  /// caller must call thermal(c).step(pending_dt()) for every cube c <
  /// cube_count() before calling advance() again; false when the run is
  /// complete and take_result() may be called.
  [[nodiscard]] bool advance();

  /// The epoch length the pending thermal step must cover (valid after
  /// advance() returned true).
  [[nodiscard]] Time pending_dt() const { return ep_.step; }

  [[nodiscard]] std::size_t cube_count() const { return cubes_.size(); }
  [[nodiscard]] thermal::HmcThermalModel& thermal(std::size_t cube = 0) {
    return cubes_[cube].therm;
  }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] bool done() const { return phase_ == Phase::kDone; }
  [[nodiscard]] RunResult take_result();

 private:
  enum class Phase { kWarmupPass, kWarmupJump, kMeasuredBegin, kFinalize, kDone };

  struct PassOutcome {
    Celsius peak{0.0};
    power::OperatingPoint avg{};
    hmc::EpochDemand demand_per_sec{};  // average offered demand rate
  };

  /// Per-pass accumulation state (one workload execution).
  struct PassState {
    Time epoch{Time::zero()};
    bool measure{false};
    Time start{Time::zero()};
    Celsius peak{0.0};
    double tot_raw{0.0}, tot_internal{0.0}, tot_pim{0.0};
    double dem_reads{0.0}, dem_writes{0.0}, dem_pims{0.0};
  };

  /// Epoch state carried across the thermal-step yield (totals over cubes).
  struct EpochState {
    Time step{Time::zero()};
    double secs{0.0};
    double reads{0.0}, writes{0.0}, pim_ops{0.0};
    hmc::TransactionMix mix{};
    power::OperatingPoint op{};
  };

  /// One HMC cube: its service backend (built from cfg_.backend by
  /// hmc::make_backend), its thermal stack and its share of the demand.
  struct Cube {
    std::unique_ptr<hmc::Backend> backend;
    thermal::HmcThermalModel therm;
    double regular_share{1.0};
    double pim_share{1.0};
    Celsius pass_peak{0.0};
    power::PowerBreakdown pb{};  // applied this epoch
  };

  [[nodiscard]] Celsius hottest() const;
  /// Serve one window of demand on every cube; at one cube this is the
  /// backend's own service, else the aggregate at the slowest cube's pace.
  [[nodiscard]] hmc::EpochService serve(const hmc::EpochDemand& demand, Time window);
  void begin_pass(Time epoch, bool measure);
  /// Serve phase: runs epochs until one needs a thermal step (true) or the
  /// engine finishes the pass (false).
  [[nodiscard]] bool pass_epoch();
  /// Control phase: post-step bookkeeping for the epoch stashed in ep_.
  void post_step();
  void end_pass();
  void warmup_jump();
  void finalize();

  SystemConfig cfg_;
  obs::Trace tr_;
  obs::CounterRegistry* ctr_{nullptr};
  std::vector<Cube> cubes_;
  /// Committed ops: at one cube exactly the backend's own tally; at more, a
  /// cube that served ahead of the commit is offered that work again, so its
  /// own tally would count it twice.
  hmc::OpTally committed_;
  bool ideal_{false};
  bool faulty_{false};

  std::unique_ptr<control::Policy> controller_;
  std::optional<gpu::ExecutionEngine> engine_;
  std::optional<detail::DelayedSensor> sensor_;
  std::optional<fault::FaultPlan> faults_;
  std::optional<fault::Watchdog> wdog_;

  RunResult result_;
  Time now_{Time::zero()};

  Phase phase_{Phase::kMeasuredBegin};
  bool in_pass_{false};
  bool awaiting_step_{false};
  PassState pass_;
  EpochState ep_;
  PassOutcome pass_out_;
  Time measured_start_{Time::zero()};

  // Warm-up repetition state.
  unsigned rep_{0};
  Celsius prev_peak_{0.0};
  std::uint64_t prev_adjustments_{0};
};

}  // namespace coolpim::sys
