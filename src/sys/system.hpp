// Full-system epoch-coupled model: GPU <-> HMC <-> power <-> thermal <->
// CoolPIM feedback loop (paper Fig. 6 and Section V-A infrastructure).
// One GPU drives `cubes` HMC stacks; the feedback loop senses the hottest.
//
// The simulation advances in ~10 us epochs.  Each epoch the GPU engine
// offers transaction demand, the HMC throughput model resolves what it can
// serve at the current (derated) temperature, the served traffic is turned
// into power and integrated by the transient thermal model, and thermal
// warnings -- sensed with the ~1 ms thermal delay of Fig. 8 -- drive the
// scenario's throttle controller.
//
// Runs start warm: graph applications launch kernels back-to-back, so the
// measured pass begins from the quasi-steady thermal state reached by
// repeated warm-up executions of the same workload.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>

#include "common/units.hpp"
#include "control/mpc.hpp"
#include "control/policy_table.hpp"
#include "fault/fault_config.hpp"
#include "gpu/config.hpp"
#include "hmc/backend.hpp"
#include "hmc/config.hpp"
#include "hmc/thermal_policy.hpp"
#include "obs/observer.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "sys/metrics.hpp"
#include "sys/scenario.hpp"
#include "sys/workloads.hpp"

namespace coolpim::sys {

struct SystemConfig {
  gpu::GpuConfig gpu{};
  hmc::HmcConfig hmc{hmc::hmc20_config()};
  hmc::ThermalPolicy policy{};
  /// HMC service-backend fidelity tier (hmc/backend.hpp registry; selected
  /// by --hmc-backend / COOLPIM_HMC_BACKEND).  The default tier reproduces
  /// the pre-contract simulator byte for byte, and -- like `fault` and the
  /// predictive-policy configs -- is hashed into the experiment key only
  /// when it differs from the default, so every existing key and golden
  /// result is preserved.
  hmc::BackendKind backend{hmc::BackendKind::kEpochThroughput};
  power::EnergyParams energy{};
  power::CoolingType cooling{power::CoolingType::kCommodityServer};
  Scenario scenario{Scenario::kCoolPimHw};

  /// Deterministic fault environment for the warning loop (fault::FaultPlan).
  /// Default-constructed == fault-free: the fault path is not instantiated
  /// and the run is bit-identical to the pre-fault-layer simulator.
  fault::FaultConfig fault{};

  /// Predictive-policy configs, consumed only by their own scenario (and
  /// hashed into the experiment key only then, so every pre-zoo experiment
  /// keeps its key and golden results).
  control::MpcConfig mpc{};
  control::PolicyTableConfig policy_table{};

  /// HMC cubes behind the GPU (1..8; the prototype platform carries up to
  /// six).  Regular traffic stripes evenly across them; PIM traffic follows
  /// `atomic_skew`.  Hashed into the experiment key only when != 1.
  std::size_t cubes{1};
  /// Fraction of PIM traffic landing on cube 0 (power-law hubs); the other
  /// cubes split the rest evenly.  1/cubes = balanced.  Unused at 1 cube.
  double atomic_skew{0.5};

  Time epoch{Time::us(10.0)};
  Time warmup_epoch{Time::us(50.0)};
  /// Thermal sensing delay (T_thermal, Fig. 8): warnings reflect the DRAM
  /// temperature this long ago.
  Time thermal_delay{Time::ms(1.0)};

  // CoolPIM knobs.
  std::uint32_t sw_control_factor{4};
  std::uint32_t hw_control_factor{8};
  double target_rate_op_per_ns{1.3};
  std::uint32_t eq1_margin_blocks{4};

  // Run control.
  bool warm_start{true};
  /// Seed for the run's stochastic sampling (cache-characterization replay).
  /// The parallel runner (runner/experiment.hpp) overwrites this with a seed
  /// derived from the task's stable hash so sweep results are independent of
  /// thread count and scheduling order.
  std::uint64_t run_seed{7};
  /// If > 0: bisect the pre-run background load so the starting peak DRAM
  /// temperature equals this value (transient experiments, Fig. 14).
  double start_temp_override{-1.0};
  unsigned max_warmup_reps{8};
  double warmup_tolerance_c{0.5};
  Time max_time{Time::sec(5.0)};
  /// Thermal-shutdown recovery penalty (prototype measured tens of seconds).
  Time shutdown_recovery{Time::sec(10.0)};

  /// Observability sink for this run (nullptr = no recording).  Like
  /// run_seed, this is deliberately excluded from runner::config_hash: it is
  /// not part of the experiment's identity, and recording is strictly
  /// read-only, so results are bit-identical with or without it.
  obs::RunObserver* observer{nullptr};
};

class System {
 public:
  explicit System(SystemConfig cfg);

  /// Run one workload under the configured scenario and return its metrics.
  [[nodiscard]] RunResult run(const graph::WorkloadProfile& workload);

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }

 private:
  SystemConfig cfg_;
};

}  // namespace coolpim::sys
