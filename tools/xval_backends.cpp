// Cross-validation harness for the hmc::Backend fidelity tiers.
//
// For each PIM micro-kernel (pim/programs.hpp) the harness drives the
// analytic epoch-throughput backend and the instruction-level pim-vault
// backend with the same saturating pure-PIM demand and compares the served
// op/ns rates.  The two tiers model the same cube from opposite ends --
// aggregate internal-bandwidth budgeting vs per-instruction bank timing --
// so their saturated rates must agree within a documented tolerance
// (EXPERIMENTS.md, cross-validation table).  Exit 1 on any violation; CI
// runs this binary, and tests/test_backends.cpp mirrors the check tier-1.
//
// Usage: xval_backends [--epochs N]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "hmc/backend.hpp"
#include "pim/programs.hpp"
#include "pim/xval.hpp"

using namespace coolpim;

namespace {

int run_tool(int argc, char** argv) {
  unsigned epochs = 40;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      epochs = static_cast<unsigned>(
          parse_u64("--epochs", argv[++i], std::numeric_limits<unsigned>::max()));
      COOLPIM_REQUIRE(epochs > 0, "--epochs must be positive");
    } else {
      std::fprintf(stderr, "usage: xval_backends [--epochs N]\n");
      return 2;
    }
  }

  std::printf("cross-validation: epoch-throughput vs pim-vault, %u epochs/point\n", epochs);
  std::printf("tolerance: |pim/epoch - 1| <= %.2f (EXPERIMENTS.md)\n\n", pim::kXvalTolerance);
  std::printf("%-10s %6s %16s %14s %8s %6s\n", "kernel", "temp_c", "epoch_op_per_ns",
              "pim_op_per_ns", "ratio", "pass");

  bool ok = true;
  for (const std::string_view kernel : pim::kMicroKernels) {
    for (const double temp_c : {60.0, 90.0}) {
      const pim::XvalPoint p = pim::cross_validate(kernel, Celsius{temp_c}, epochs);
      const bool pass = std::fabs(p.ratio - 1.0) <= pim::kXvalTolerance;
      ok = ok && pass;
      std::printf("%-10s %6.0f %16.3f %14.3f %8.3f %6s\n", std::string{kernel}.c_str(),
                  temp_c, p.epoch_op_per_ns, p.pim_op_per_ns, p.ratio,
                  pass ? "ok" : "FAIL");
    }
  }

  if (!ok) {
    std::fprintf(stderr, "\ncross-validation FAILED: a backend drifted past the "
                         "documented tolerance\n");
    return 1;
  }
  std::printf("\nall kernels within tolerance\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
