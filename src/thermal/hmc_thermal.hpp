// Calibrated thermal model of an HMC cube (HMC 1.1 and HMC 2.0 variants).
//
// Wires the generic StackModel to HMC floorplans and to the power model's
// PowerBreakdown: logic-die background power goes to the die edge (SerDes
// PHYs), logic dynamic power and PIM FU power concentrate at vault centers
// (vault controllers + FUs -- the paper's Fig. 3 hotspot pattern), and DRAM
// power spreads uniformly over the eight DRAM dies.
//
// Free parameters (interface resistance, TIM, spread radius) are fixed by
// the calibration anchors in DESIGN.md section 6; tests/thermal assert them.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::thermal {

struct HmcThermalConfig {
  std::size_t dram_dies{8};
  Floorplan floorplan{};                 // defaults: 68 mm^2, 8x4 vaults
  power::CoolingSolution cooling{power::cooling(power::CoolingType::kCommodityServer)};
  Celsius ambient{25.0};
  /// Heat from a co-packaged component sharing the heat sink (the AC-510
  /// module's FPGA for the HMC 1.1 prototype experiments).
  double co_heater_watts{0.0};
  /// Inter-die bond/underfill interface resistance, m^2*K/W (calibrated).
  double interface_r{4.5e-6};
  /// TIM resistance top die -> sink, m^2*K/W (calibrated).
  double tim_r{5.0e-6};
  /// Vault-center power spread radius in cells (1 = single cell).
  int vault_spread_cells{1};
  /// Transient-response calibration: scales the die heat capacity so the
  /// stack's thermal time constant matches the ~1 ms response the paper's
  /// KitFox/3D-ICE setup exhibits (Fig. 8, T_thermal).  Physically this
  /// corresponds to tracking only the dies' active regions; steady-state
  /// results are unaffected.
  double heat_capacity_scale{0.045};
  /// Heat-sink node capacitance, J/K.  3D-ICE-style boundary condition: the
  /// sink is modelled as a convective boundary, not a finned thermal mass,
  /// so the whole stack equilibrates on the millisecond scale the paper's
  /// feedback loop (Fig. 8) is built around.
  double sink_heat_capacity{0.006};
};

/// HMC 2.0 cube: 8 DRAM dies over 1 logic die, 32 vaults.
[[nodiscard]] HmcThermalConfig hmc20_thermal_config(power::CoolingType cooling);

/// HMC 1.1 cube on the AC-510 module: 4 DRAM dies, 16 vaults, FPGA sharing
/// the module heat sink.
[[nodiscard]] HmcThermalConfig hmc11_thermal_config(power::CoolingType cooling,
                                                    double fpga_watts = 20.0);

class HmcThermalModel {
 public:
  explicit HmcThermalModel(HmcThermalConfig cfg);

  /// Distribute a power breakdown onto the stack's layers.
  void apply_power(const power::PowerBreakdown& power);

  /// Steady-state solve with the currently applied power.  Returns the
  /// solver iteration count.  The temperature field persists between calls,
  /// so with the default kWarm start a parameter sweep re-converges from the
  /// previous point's solution instead of from ambient (docs/PERFORMANCE.md);
  /// pass SteadyStart::kCold to reproduce a from-scratch solve.
  std::size_t solve_steady(SteadyStart start = SteadyStart::kWarm);

  /// Advance the transient solution.
  void step(Time dt);

  /// Reset the whole stack to ambient.
  void reset();

  [[nodiscard]] Celsius peak_dram() const;
  [[nodiscard]] Celsius peak_logic() const;
  [[nodiscard]] Celsius mean_dram() const;
  [[nodiscard]] Celsius surface() const { return stack_.surface_temp(); }
  /// Junction (die) estimate from a surface reading using the paper's rule of
  /// thumb: 5-10 C above surface per ~20 W dissipated.
  [[nodiscard]] static Celsius estimate_die_from_surface(Celsius surface, Watts power);

  [[nodiscard]] const StackModel& stack() const { return stack_; }
  /// Mutable stack access for benches/tests that drive the solver kernels
  /// directly (e.g. bench/perf_thermal.cpp timing step_reference()).
  [[nodiscard]] StackModel& stack() { return stack_; }
  [[nodiscard]] const HmcThermalConfig& config() const { return cfg_; }
  /// Logic-layer temperature field (for heat maps, paper Fig. 3).
  [[nodiscard]] std::vector<double> logic_heatmap() const { return stack_.layer_field(0); }

  /// Attach observability (category "thermal"): a complete-span per step()
  /// with peak temperatures, peak_dram_c/peak_logic_c counter tracks, and a
  /// `warning_crossing` instant (with per-die temperatures) whenever the
  /// peak DRAM temperature crosses `warn_limit`.  step() has no absolute-time
  /// parameter, so events are stamped with an internal clock the driver
  /// re-syncs via sync_trace_clock() each epoch.  Recording is read-only;
  /// the thermal solution is unaffected.
  void set_observer(obs::Trace trace, obs::CounterRegistry* counters, Celsius warn_limit) {
    trace_ = trace;
    counters_ = counters;
    warn_limit_ = warn_limit;
  }
  void sync_trace_clock(Time now) { clock_ = now; }

 private:
  [[nodiscard]] static StackSpec build_stack_spec(const HmcThermalConfig& cfg);

  HmcThermalConfig cfg_;
  StackModel stack_;

  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
  Celsius warn_limit_{85.0};
  Time clock_{Time::zero()};
  bool above_limit_{false};
};

}  // namespace coolpim::thermal
