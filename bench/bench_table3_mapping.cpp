// Table III: examples of PIM instruction mapping, plus a micro-benchmark of
// the dynamic decode translation HW-DynT performs.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"

#include "support.hpp"
#include "core/translate.hpp"

using namespace coolpim;

namespace {

void print_table3() {
  Table t{"Table III -- Examples of PIM instruction mapping"};
  t.header({"Type", "PIM instruction", "Non-PIM (CUDA)"});
  const hmc::PimOpcode rows[] = {
      hmc::PimOpcode::kSignedAdd8, hmc::PimOpcode::kSwap,      hmc::PimOpcode::kBitWrite,
      hmc::PimOpcode::kAnd,        hmc::PimOpcode::kOr,        hmc::PimOpcode::kCasEqual,
      hmc::PimOpcode::kCasGreater, hmc::PimOpcode::kFpAdd,     hmc::PimOpcode::kFpMin,
  };
  for (const auto op : rows) {
    t.row({std::string(hmc::to_string(hmc::classify(op))), std::string(hmc::to_string(op)),
           std::string(core::to_string(core::to_cuda(op)))});
  }
  t.print(std::cout);
}

void BM_DynamicTranslation(benchmark::State& state) {
  // HW-DynT translates PIM instructions back to CUDA atomics at decode for
  // PIM-disabled warps; the mapping must be branch-cheap.
  const hmc::PimOpcode ops[] = {hmc::PimOpcode::kSignedAdd8, hmc::PimOpcode::kCasGreater,
                                hmc::PimOpcode::kFpAdd, hmc::PimOpcode::kOr};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::to_cuda(ops[i & 3]));
    ++i;
  }
}
BENCHMARK(BM_DynamicTranslation);

void BM_OffloadMapping(benchmark::State& state) {
  const core::CudaAtomic ops[] = {core::CudaAtomic::kAtomicAdd, core::CudaAtomic::kAtomicMin,
                                  core::CudaAtomic::kAtomicCAS, core::CudaAtomic::kAtomicOr};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::to_pim(ops[i & 3]));
    ++i;
  }
}
BENCHMARK(BM_OffloadMapping);

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::init_observability(&argc, argv);
    print_table3();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  });
}
