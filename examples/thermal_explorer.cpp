// Thermal what-if explorer for 3D-stacked memory designs.
//
//   $ ./thermal_explorer [data-GB/s] [pim-op-per-ns]
//
// Answers the system designer's questions: how hot does an HMC 2.0 cube run
// at a given load under each cooling solution, what does the cooling cost in
// fan power, and what is the largest PIM rate each sink sustains inside the
// normal DRAM range?
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "hmc/thermal_policy.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "runner/pool.hpp"
#include "thermal/hmc_thermal.hpp"

using namespace coolpim;

namespace {

power::OperatingPoint operating_point(const hmc::LinkModel& link, double data_gbps,
                                      double pim_rate) {
  hmc::TransactionMix mix;
  mix.pim_per_sec = pim_rate * 1e9;
  mix.reads_per_sec = data_gbps * 1e9 / 64.0;
  power::OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  op.pim_ops_per_sec = mix.pim_per_sec;
  return op;
}

int run_tool(int argc, char** argv) {
  const double data_gbps = argc > 1 ? parse_double("data-GB/s", argv[1]) : 200.0;
  const double pim_rate = argc > 2 ? parse_double("pim-op-per-ns", argv[2]) : 1.0;
  COOLPIM_REQUIRE(data_gbps >= 0.0 && pim_rate >= 0.0, "loads must be non-negative");

  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams energy;
  const hmc::ThermalPolicy policy;
  const auto op = operating_point(link, data_gbps, pim_rate);

  if (!link.feasible({data_gbps * 1e9 / 64.0, 0.0, pim_rate * 1e9, 0.0})) {
    std::cout << "Requested load exceeds the link FLIT budget; results show the\n"
                 "temperature IF the cube could serve it.\n";
  }

  const auto pb = power::compute_power(energy, op);
  std::cout << "Operating point: " << Table::num(data_gbps, 0) << " GB/s regular data + "
            << Table::num(pim_rate, 2) << " PIM op/ns\n"
            << "Cube power: " << Table::num(pb.total().value(), 1) << " W (logic "
            << Table::num(pb.logic_total().value(), 1) << " W incl. "
            << Table::num(pb.fu.value(), 2) << " W of PIM FUs, DRAM "
            << Table::num(pb.dram_total().value(), 1) << " W), internal DRAM traffic "
            << Table::num(op.dram_internal.as_gbps(), 0) << " GB/s\n";

  // Each heat sink's steady solve and PIM-budget bisection is independent:
  // fan them out across the pool and print the rows in sink order.
  const auto& sinks = power::all_cooling_solutions();
  std::vector<std::vector<std::string>> point_rows(sinks.size());
  std::vector<std::vector<std::string>> budget_rows(sinks.size());
  runner::Pool pool;
  pool.parallel_for(sinks.size(), [&](std::size_t i) {
    const auto& sink = sinks[i];
    thermal::HmcThermalModel model{thermal::hmc20_thermal_config(sink.type)};
    model.apply_power(pb);
    model.solve_steady();
    const Celsius temp = model.peak_dram();
    point_rows[i] = {sink.name, Table::num(sink.resistance.value(), 1),
                     Table::num(sink.fan_power_watts, 2), Table::num(temp.value(), 1),
                     std::string(to_string(policy.phase(temp)))};

    // Largest sustainable PIM rate (bisection against the 85 C limit).
    double lo = 0.0, hi = 10.0;
    for (int step = 0; step < 24; ++step) {
      const double mid = 0.5 * (lo + hi);
      hmc::TransactionMix mix;
      mix.pim_per_sec = mid * 1e9;
      mix.reads_per_sec =
          link.regular_bandwidth_with_pim(mix.pim_per_sec).as_bytes_per_sec() / 64.0;
      power::OperatingPoint probe;
      probe.link_raw = link.raw_link_bandwidth(mix);
      probe.dram_internal = link.internal_dram_bandwidth(mix);
      probe.pim_ops_per_sec = mix.pim_per_sec;
      thermal::HmcThermalModel probe_model{thermal::hmc20_thermal_config(sink.type)};
      probe_model.apply_power(power::compute_power(energy, probe));
      probe_model.solve_steady();
      (probe_model.peak_dram().value() < 85.0 ? lo : hi) = mid;
    }
    budget_rows[i] = {sink.name, lo <= 0.0 ? "none (over 85 C even without PIM)"
                                           : Table::num(lo, 2)};
  });

  Table t{"Cooling solutions at this operating point"};
  t.header({"Heat sink", "R (C/W)", "Fan power (W)", "Peak DRAM (C)", "Phase"});
  for (auto& row : point_rows) t.row(std::move(row));
  t.print(std::cout);

  Table budget{"PIM-rate budget within the normal DRAM range (links otherwise full)"};
  budget.header({"Heat sink", "Max PIM rate (op/ns) below 85 C"});
  for (auto& row : budget_rows) budget.row(std::move(row));
  budget.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
