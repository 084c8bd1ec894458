// Extension: every scenario on the cc / tc workloads (GraphBIG members
// beyond the paper's evaluation set), demonstrating that CoolPIM generalizes
// past the original ten kernels.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"

#include "support.hpp"
#include "sys/system.hpp"

using namespace coolpim;

namespace {

// Triangle counting is intersection-heavy on RMAT hubs, so the extension
// bench runs at a smaller scale than the main matrix.
const sys::WorkloadSet& extended_set() {
  static const sys::WorkloadSet set{14, 1, /*include_extended=*/true};
  return set;
}

void print_extended() {
  Table t{"Extension -- scenarios on cc / tc (scale 14 LDBC-like graph)"};
  t.header({"Workload", "Scenario", "Exec (ms)", "Speedup", "PIM rate (op/ns)",
            "Peak DRAM (C)"});
  for (const auto& name : sys::extended_workload_names()) {
    double base_ms = 0.0;
    for (const auto scenario : sys::kAllScenarios) {
      sys::SystemConfig cfg;
      cfg.scenario = scenario;
      sys::System system{cfg};
      const auto r = system.run(extended_set().profile(name));
      if (scenario == sys::Scenario::kNonOffloading) base_ms = r.exec_time.as_ms();
      t.row({name, r.scenario, Table::num(r.exec_time.as_ms(), 2),
             Table::num(base_ms / r.exec_time.as_ms(), 2),
             Table::num(r.avg_pim_rate_op_per_ns(), 2),
             Table::num(r.peak_dram_temp.value(), 1)});
    }
  }
  t.print(std::cout);
  std::cout << "cc behaves like the paper's atomic-heavy kernels (throttling pays off);\n"
               "tc is compute/intersection-bound, so offloading matters less -- the same\n"
               "workload-dependence the paper reports for kcore and sssp-dtc.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_extended();
    return 0;
  });
}
