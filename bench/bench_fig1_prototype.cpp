// Fig. 1: thermal evaluation of the real HMC 1.1 prototype (AC-510 module)
// across heat sinks and load, reproduced with the calibrated module model.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"

#include "support.hpp"
#include "hmc/config.hpp"
#include "hmc/thermal_policy.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

struct Fig1Case {
  power::CoolingType type;
  const char* state;
  double data_gbps;
  double fpga_watts;
  double paper_surface_c;  // thermal-camera reading from the paper
};

constexpr Fig1Case kCases[] = {
    {power::CoolingType::kHighEndActive, "idle", 0.0, 20.0, 40.5},
    {power::CoolingType::kHighEndActive, "busy", 60.0, 30.0, 47.3},
    {power::CoolingType::kLowEndActive, "idle", 0.0, 20.0, 45.3},
    {power::CoolingType::kLowEndActive, "busy", 60.0, 30.0, 60.5},
    {power::CoolingType::kPassive, "idle", 0.0, 20.0, 71.1},
    {power::CoolingType::kPassive, "busy", 60.0, 30.0, 85.4},
};

void print_fig1() {
  const hmc::LinkModel link{hmc::hmc11_config()};
  hmc::ThermalPolicy prototype_policy;
  prototype_policy.conservative_shutdown = true;  // HMC 1.1 stops when hot

  Table t{"Fig. 1 -- HMC 1.1 prototype surface temperature (thermal camera vs model)"};
  t.header({"Heat sink", "State", "Paper (C)", "Model surface (C)", "Model die (C)", "Note"});
  for (const auto& c : kCases) {
    thermal::HmcThermalModel model{thermal::hmc11_thermal_config(c.type, c.fpga_watts)};
    model.apply_power(
        power::compute_power(power::EnergyParams{}, bench::read_traffic(link, c.data_gbps)));
    model.solve_steady();
    const bool shutdown =
        prototype_policy.phase(model.peak_dram()) == hmc::ThermalPhase::kShutdown;
    t.row({power::prototype_cooling(c.type).name, c.state, Table::num(c.paper_surface_c, 1),
           Table::num(model.surface().value(), 1), Table::num(model.peak_dram().value(), 1),
           shutdown ? "SHUTDOWN (conservative policy)" : ""});
  }
  t.print(std::cout);
  std::cout << "Paper observation reproduced: with a passive heat sink the prototype cannot\n"
               "operate at full bandwidth -- the die crosses the conservative ~95 C shutdown.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_fig1();
    return 0;
  });
}
