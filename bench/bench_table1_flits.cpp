// Table I: HMC memory transaction bandwidth requirement in FLITs.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"

#include "support.hpp"
#include "hmc/packet.hpp"

using namespace coolpim;

namespace {

void print_table1() {
  Table t{"Table I -- HMC memory transaction bandwidth requirement in FLITs (FLIT = 128 bit)"};
  t.header({"Type", "Request", "Response", "Total bytes"});
  for (const auto type :
       {hmc::TransactionType::kRead64, hmc::TransactionType::kWrite64,
        hmc::TransactionType::kPimNoReturn, hmc::TransactionType::kPimWithReturn}) {
    const auto cost = hmc::flit_cost(type);
    t.row({std::string(hmc::to_string(type)), std::to_string(cost.request) + " FLITs",
           std::to_string(cost.response) + " FLITs", std::to_string(cost.total_bytes())});
  }
  t.print(std::cout);
  std::cout << "PIM offloading saves up to "
            << Table::num(100.0 * (1.0 - 3.0 / 6.0), 0)
            << "% of the link FLITs per update (paper Section II-B).\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_table1();
    return 0;
  });
}
