// Extension table: energy per workload per scenario, including the cooling
// fan.  The paper motivates PIM by energy efficiency and notes that the
// extended temperature range "incurs higher energy consumption"; this bench
// quantifies both effects in one table.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_energy() {
  const auto& matrix = scenario_matrix();

  Table t{"Extension -- cube + fan energy per run, normalized to the baseline"};
  t.header({"Workload", "Baseline (mJ)", "Naive", "CoolPIM (SW)", "CoolPIM (HW)",
            "Ideal Thermal"});
  for (const auto& row : matrix) {
    const double base = row.at(sys::Scenario::kNonOffloading).total_energy_j();
    t.row({row.workload, Table::num(base * 1e3, 1),
           Table::num(row.at(sys::Scenario::kNaiveOffloading).total_energy_j() / base, 2),
           Table::num(row.at(sys::Scenario::kCoolPimSw).total_energy_j() / base, 2),
           Table::num(row.at(sys::Scenario::kCoolPimHw).total_energy_j() / base, 2),
           Table::num(row.at(sys::Scenario::kIdealThermal).total_energy_j() / base, 2)});
  }
  t.print(std::cout);
  std::cout
      << "Naive offloading's hot-phase operation erodes its energy advantage (doubled\n"
         "refresh + leakage at >85 C, paper Section I); CoolPIM keeps the savings by\n"
         "staying in the normal range while still finishing sooner than the baseline.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_energy();
    return 0;
  });
}
