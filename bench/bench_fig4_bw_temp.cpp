// Fig. 4: peak DRAM temperature vs data bandwidth (0-320 GB/s) for the four
// cooling solutions, HMC 2.0.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"

#include "support.hpp"
#include "hmc/config.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

void print_fig4() {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;

  // One persistent model per cooling solution: each bandwidth point
  // warm-starts the steady solve from the previous point's field, which
  // converges in a fraction of the from-ambient iteration count
  // (docs/PERFORMANCE.md).
  std::vector<thermal::HmcThermalModel> models;
  models.reserve(4);
  for (const auto type : {power::CoolingType::kPassive, power::CoolingType::kLowEndActive,
                          power::CoolingType::kCommodityServer,
                          power::CoolingType::kHighEndActive}) {
    models.emplace_back(thermal::hmc20_thermal_config(type));
  }

  Table t{"Fig. 4 -- Peak DRAM temperature (C) vs data bandwidth and cooling"};
  t.header({"BW (GB/s)", "Passive", "Low-end", "Commodity", "High-end"});
  for (double bw = 0.0; bw <= 320.0 + 1e-9; bw += 40.0) {
    std::vector<std::string> row{Table::num(bw, 0)};
    for (auto& model : models) {
      model.apply_power(power::compute_power(ep, bench::read_traffic(link, bw)));
      model.solve_steady();
      const double temp = model.peak_dram().value();
      row.push_back(temp > 105.0 ? Table::num(temp, 1) + " (>limit)" : Table::num(temp, 1));
    }
    t.row(std::move(row));
  }
  t.print(std::cout);
  std::cout
      << "Paper anchors: commodity sink reaches ~33 C idle and ~81 C at 320 GB/s;\n"
         "the HMC operating range is 0-105 C, which the passive curve exceeds early.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_fig4();
    return 0;
  });
}
