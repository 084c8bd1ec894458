#include "thermal/hmc_thermal.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/names.hpp"
#include "thermal/materials.hpp"

namespace coolpim::thermal {

HmcThermalConfig hmc20_thermal_config(power::CoolingType cooling) {
  HmcThermalConfig cfg;
  cfg.cooling = power::cooling(cooling);
  return cfg;
}

HmcThermalConfig hmc11_thermal_config(power::CoolingType cooling, double fpga_watts) {
  HmcThermalConfig cfg;
  cfg.dram_dies = 4;
  cfg.floorplan.vaults_x = 4;
  cfg.floorplan.vaults_y = 4;
  cfg.cooling = power::prototype_cooling(cooling);
  cfg.co_heater_watts = fpga_watts;
  return cfg;
}

StackSpec HmcThermalModel::build_stack_spec(const HmcThermalConfig& cfg) {
  StackSpec spec;
  spec.floorplan = cfg.floorplan;
  spec.layers.reserve(cfg.dram_dies + 1);

  LayerSpec logic;
  logic.name = "logic";
  logic.thickness_m = StackGeometry::die_thickness;
  logic.conductivity = Conductivity::silicon;
  logic.volumetric_heat_capacity = HeatCapacity::silicon * cfg.heat_capacity_scale;
  logic.interface_r_above = cfg.interface_r;
  spec.layers.push_back(logic);

  for (std::size_t i = 0; i < cfg.dram_dies; ++i) {
    LayerSpec dram;
    dram.name = "dram" + std::to_string(i);
    dram.thickness_m = StackGeometry::die_thickness;
    dram.conductivity = Conductivity::silicon;
    dram.volumetric_heat_capacity = HeatCapacity::silicon * cfg.heat_capacity_scale;
    dram.interface_r_above = cfg.interface_r;
    spec.layers.push_back(dram);
  }

  spec.tim_r = cfg.tim_r;
  spec.sink_r = cfg.cooling.resistance;
  spec.sink_heat_capacity = cfg.sink_heat_capacity;
  spec.board_r = 20.0;
  spec.ambient = cfg.ambient;
  spec.co_heater_watts = cfg.co_heater_watts;
  return spec;
}

HmcThermalModel::HmcThermalModel(HmcThermalConfig cfg)
    : cfg_{std::move(cfg)}, stack_{build_stack_spec(cfg_)} {
  COOLPIM_REQUIRE(cfg_.dram_dies >= 1, "HMC needs at least one DRAM die");
}

void HmcThermalModel::apply_power(const power::PowerBreakdown& power) {
  const auto& fp = cfg_.floorplan;

  // Logic die (layer 0): SerDes/PLL background spread over the die (the PHY
  // quads occupy most of the logic-die area), switching power and PIM FUs at
  // vault centers.
  PowerMap logic = uniform_power(fp, power.logic_background.value());
  logic.add(vault_centered_power(fp, power.logic_dynamic.value(), cfg_.vault_spread_cells));
  logic.add(vault_centered_power(fp, power.fu.value(), 1));
  stack_.set_layer_power(0, logic);

  // DRAM dies: dynamic + background spread uniformly over all dies.
  const double per_die =
      (power.dram_dynamic.value() + power.dram_background.value()) /
      static_cast<double>(cfg_.dram_dies);
  const PowerMap dram = uniform_power(fp, per_die);
  for (std::size_t l = 1; l <= cfg_.dram_dies; ++l) stack_.set_layer_power(l, dram);
}

std::size_t HmcThermalModel::solve_steady(SteadyStart start) {
  const std::size_t iters = stack_.solve_steady(1e-4, 200000, start);
  if (counters_ != nullptr) {
    counters_->counter(obs::names::kThermalSteadySolves).add();
    counters_->counter(obs::names::kThermalSteadyIterations).add(iters);
  }
  return iters;
}

void HmcThermalModel::step(Time dt) {
  stack_.step(dt);
  const Time began = clock_;
  clock_ = clock_ + dt;

  // One reduction pass per step: peak_dram/peak_logic are read here once and
  // the same values feed both the counter gauges and the trace sink.
  const double dram_c = peak_dram().value();
  const double logic_c = peak_logic().value();
  const bool above = dram_c >= warn_limit_.value();
  const bool crossed = above != above_limit_;
  above_limit_ = above;

  if (counters_ != nullptr) {
    counters_->counter(obs::names::kThermalSteps).add();
    if (crossed) counters_->counter(obs::names::kThermalWarningCrossings).add();
    counters_->gauge(obs::names::kThermalPeakDramC).set(dram_c);
    counters_->gauge(obs::names::kThermalPeakLogicC).set(logic_c);
  }
  if (trace_.enabled()) {
    trace_.complete(began, dt, obs::names::kCatThermal, "step", {{"peak_dram_c", dram_c}});
    trace_.counter(clock_, obs::names::kCatThermal, "peak_dram_c", dram_c);
    trace_.counter(clock_, obs::names::kCatThermal, "peak_logic_c", logic_c);
    if (crossed) {
      obs::TraceArgs args;
      args.emplace_back("direction", above ? "rising" : "falling");
      args.emplace_back("limit_c", warn_limit_.value());
      for (std::size_t l = 1; l <= cfg_.dram_dies; ++l) {
        args.emplace_back("dram" + std::to_string(l - 1) + "_c", stack_.layer_peak(l).value());
      }
      trace_.instant(clock_, obs::names::kCatThermal, "warning_crossing", std::move(args));
    }
  }
}

void HmcThermalModel::reset() {
  stack_.reset_to_ambient();
  above_limit_ = false;
}

Celsius HmcThermalModel::peak_dram() const {
  return stack_.peak_over_layers(1, cfg_.dram_dies);
}

Celsius HmcThermalModel::peak_logic() const { return stack_.layer_peak(0); }

Celsius HmcThermalModel::mean_dram() const {
  double acc = 0.0;
  for (std::size_t l = 1; l <= cfg_.dram_dies; ++l) acc += stack_.layer_mean(l).value();
  return Celsius{acc / static_cast<double>(cfg_.dram_dies)};
}

Celsius HmcThermalModel::estimate_die_from_surface(Celsius surface, Watts power) {
  // Paper Section III-A: in-package junction runs ~5-10 C above the package
  // surface given ~20 W to dissipate; scale linearly with power.
  const double rise = 7.5 * power.value() / 20.0;
  return surface + rise;
}

}  // namespace coolpim::thermal
