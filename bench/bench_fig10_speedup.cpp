// Fig. 10: speedup over the non-offloading baseline for naive offloading,
// CoolPIM (SW), CoolPIM (HW) and the ideal-thermal scenario across the ten
// GraphBIG workloads on the LDBC-like graph.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_fig10() {
  std::cout << "Building workload set (scale " << bench_scale()
            << ", override with COOLPIM_SCALE) and running 10 workloads x 6 scenarios...\n";
  const auto& matrix = scenario_matrix();

  Table t{"Fig. 10 -- Speedup over the non-offloading baseline"};
  t.header({"Workload", "Naive-Offloading", "CoolPIM (SW)", "CoolPIM (HW)", "Ideal Thermal"});
  double geo[4] = {1.0, 1.0, 1.0, 1.0};
  const sys::Scenario cols[] = {sys::Scenario::kNaiveOffloading, sys::Scenario::kCoolPimSw,
                                sys::Scenario::kCoolPimHw, sys::Scenario::kIdealThermal};
  for (const auto& row : matrix) {
    std::vector<std::string> cells{row.workload};
    for (int c = 0; c < 4; ++c) {
      const double s = row.speedup(cols[c]);
      geo[c] *= s;
      cells.push_back(Table::num(s, 2));
    }
    t.row(std::move(cells));
  }
  std::vector<std::string> gm{"geo-mean"};
  for (double& g : geo) {
    g = std::pow(g, 1.0 / static_cast<double>(matrix.size()));
    gm.push_back(Table::num(g, 2));
  }
  t.row(std::move(gm));
  t.print(std::cout);
  std::cout
      << "Paper shape: naive offloading averages ~1.0x (down to 0.82x for bfs-dwc),\n"
         "CoolPIM improves ~21% (SW) / ~25% (HW) on average and up to ~1.4x, and the\n"
         "ideal-thermal bound reaches up to ~1.61x -- thermal constraints erase the\n"
         "offloading benefit unless the source is throttled.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_fig10();
    return 0;
  });
}
