// Extension: CoolPIM on multi-cube systems (the prototype platform carries
// up to six modules).  Sweeps cube count and hub-traffic skew through the
// one epoch loop (SystemConfig::cubes / atomic_skew), so the 1-cube row is
// the single-cube simulator's own result.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

sys::RunResult run_cubes(std::size_t cubes, double skew, sys::Scenario scenario,
                         const std::string& workload = "dc") {
  sys::SystemConfig cfg;
  cfg.cubes = cubes;
  cfg.atomic_skew = skew;
  return run_one(workload, scenario, cfg);
}

void print_scaling() {
  Table t{"Extension -- cube-count scaling (dc, balanced striping)"};
  t.header({"Cubes", "Naive exec (ms)", "CoolPIM (HW) exec (ms)", "Ideal exec (ms)",
            "Naive peak (C)"});
  for (const std::size_t n : {1u, 2u, 4u}) {
    const double balanced = 1.0 / static_cast<double>(n);
    const auto naive = run_cubes(n, balanced, sys::Scenario::kNaiveOffloading);
    const auto hw = run_cubes(n, balanced, sys::Scenario::kCoolPimHw);
    const auto ideal = run_cubes(n, balanced, sys::Scenario::kIdealThermal);
    t.row({std::to_string(n), Table::num(naive.exec_time.as_ms(), 2),
           Table::num(hw.exec_time.as_ms(), 2), Table::num(ideal.exec_time.as_ms(), 2),
           Table::num(naive.peak_dram_temp.value(), 1)});
  }
  t.print(std::cout);
  std::cout << "Striping across cubes divides the per-cube load: with enough cubes even\n"
               "naive offloading stays inside the normal range and CoolPIM's throttle\n"
               "never engages -- thermal headroom can be bought with more stacks.\n";
}

void print_skew() {
  // pagerank runs long enough for the feedback loop to settle in-run.
  Table t{"Extension -- hub-traffic skew on 2 cubes (pagerank)"};
  t.header({"Skew (cube 0 share)", "Scenario", "Exec (ms)", "Hottest cube (C)",
            "Coolest cube (C)"});
  for (const double skew : {0.50, 0.70, 0.90}) {
    for (const auto scenario :
         {sys::Scenario::kNaiveOffloading, sys::Scenario::kCoolPimHw}) {
      const auto r = run_cubes(2, skew, scenario, "pagerank");
      double lo = 1e9, hi = -1e9;
      for (const auto& cube : r.cubes) {
        lo = std::min(lo, cube.final_dram_temp.value());
        hi = std::max(hi, cube.final_dram_temp.value());
      }
      t.row({Table::num(skew, 2), r.scenario, Table::num(r.exec_time.as_ms(), 2),
             Table::num(hi, 1), Table::num(lo, 1)});
    }
  }
  t.print(std::cout);
  std::cout << "Power-law hubs concentrate PIM heat on one cube; the whole GPU slows to\n"
               "that cube's pace.  CoolPIM reacts to the hottest cube's warnings -- the\n"
               "per-response ERRSTAT transport makes that per-cube feedback free.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_scaling();
    print_skew();
    return 0;
  });
}
