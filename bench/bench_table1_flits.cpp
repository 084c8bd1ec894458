// Table I: HMC memory transaction bandwidth requirement in FLITs, plus
// google-benchmark measurements of the event-detailed device's service rates
// per transaction type.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"

#include "support.hpp"
#include "hmc/device.hpp"
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

void BM_DeviceTransaction(benchmark::State& state, hmc::TransactionType type) {
  for (auto _ : state) {
    sim::Simulation sim;
    hmc::Device dev{sim, hmc::hmc20_config()};
    constexpr int kOps = 1000;
    int done = 0;
    for (int i = 0; i < kOps; ++i) {
      dev.submit({type, static_cast<std::uint64_t>(i) * 64, 0},
                 [&](const hmc::Response&) { ++done; });
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(done);
    state.counters["flits_per_op"] =
        static_cast<double>(hmc::flit_cost(type).total());
    state.counters["sim_ns_per_op"] = sim.now().as_ns() / kOps;
  }
}

BENCHMARK_CAPTURE(BM_DeviceTransaction, read64, hmc::TransactionType::kRead64);
BENCHMARK_CAPTURE(BM_DeviceTransaction, write64, hmc::TransactionType::kWrite64);
BENCHMARK_CAPTURE(BM_DeviceTransaction, pim_no_return, hmc::TransactionType::kPimNoReturn);
BENCHMARK_CAPTURE(BM_DeviceTransaction, pim_with_return, hmc::TransactionType::kPimWithReturn);

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::init_observability(&argc, argv);
    print_table1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  });
}
