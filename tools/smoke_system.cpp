// Development smoke test: run a few workloads through every scenario and
// print Fig. 10/12/13-style numbers for calibration.
#include <cstdio>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "sys/system.hpp"

using namespace coolpim;

namespace {

int run_tool(int argc, char** argv) {
  const unsigned scale = argc > 1 ? static_cast<unsigned>(parse_u64("scale", argv[1], 24)) : 16;
  std::printf("building workload set at scale %u...\n", scale);
  sys::WorkloadSet set{scale};
  std::printf("graph: %u vertices, %llu edges\n", set.graph().num_vertices(),
              static_cast<unsigned long long>(set.graph().num_edges()));

  for (const auto& name : sys::workload_names()) {
    const auto& wl = set.profile(name);
    std::printf("\n%-9s iters=%zu atomics=%llu intensity=%.3f div=%.2f\n", name.c_str(),
                wl.iterations.size(), static_cast<unsigned long long>(wl.total_atomics()),
                wl.pim_intensity(), wl.divergence_ratio());
    double base_ms = 0.0, base_bytes = 0.0;
    for (const auto scen : sys::kAllScenarios) {
      sys::SystemConfig cfg;
      cfg.scenario = scen;
      sys::System system{cfg};
      sys::RunResult r;
      try {
        r = system.run(wl);
      } catch (const std::exception& e) {
        std::printf("  %-18s EXCEPTION: %s\n", std::string(to_string(scen)).c_str(), e.what());
        continue;
      }
      if (scen == sys::Scenario::kNonOffloading) {
        base_ms = r.exec_time.as_ms();
        base_bytes = r.consumption_bytes();
      }
      std::printf(
          "  %-18s exec %7.2f ms  speedup %5.2f  bw %6.1f GB/s  norm-bw %4.2f  "
          "pim %4.2f op/ns  peak %5.1f C  warn %llu%s\n",
          r.scenario.c_str(), r.exec_time.as_ms(),
          base_ms > 0 ? base_ms / r.exec_time.as_ms() : 1.0, r.avg_link_data_gbps(),
          base_bytes > 0 ? r.consumption_bytes() / base_bytes : 1.0,
          r.avg_pim_rate_op_per_ns(), r.peak_dram_temp.value(),
          static_cast<unsigned long long>(r.thermal_warnings), r.shut_down ? "  SHUTDOWN" : "");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
