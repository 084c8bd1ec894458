// Table III: examples of PIM instruction mapping (the dynamic decode
// translation HW-DynT performs).
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

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_table3();
    return 0;
  });
}
