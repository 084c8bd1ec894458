// Fig. 12: average PIM offloading rate per workload, naive vs CoolPIM.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_fig12() {
  const auto& matrix = scenario_matrix();

  Table t{"Fig. 12 -- Average PIM offloading rate (op/ns)"};
  t.header({"Workload", "Naive-Offloading", "CoolPIM (SW)", "CoolPIM (HW)", "budget"});
  for (const auto& row : matrix) {
    t.row({row.workload,
           Table::num(row.at(sys::Scenario::kNaiveOffloading).avg_pim_rate_op_per_ns(), 2),
           Table::num(row.at(sys::Scenario::kCoolPimSw).avg_pim_rate_op_per_ns(), 2),
           Table::num(row.at(sys::Scenario::kCoolPimHw).avg_pim_rate_op_per_ns(), 2),
           "1.30"});
  }
  t.print(std::cout);
  std::cout
      << "CoolPIM's source throttling keeps every workload at or below the ~1.3 op/ns\n"
         "thermal budget, while naive offloading pushes far past it (paper Fig. 12).\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_fig12();
    return 0;
  });
}
