// Development tool: trace one run.
//
// Prints the per-epoch temperature/PIM-rate timeline and, when given output
// paths, records the run through the obs subsystem:
//
//   trace_run [scale] [workload] [scenario-idx] [trace.json] [counters.csv]
//
// The trace JSON loads in chrome://tracing / Perfetto; both schemas are
// documented in docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "obs/observer.hpp"
#include "sys/system.hpp"

using namespace coolpim;

namespace {

int run_tool(int argc, char** argv) {
  const unsigned scale = argc > 1 ? static_cast<unsigned>(parse_u64("scale", argv[1], 24)) : 18;
  const std::string wl_name = argc > 2 ? argv[2] : "dc";
  const std::size_t scen_idx =  // default 1: naive
      argc > 3 ? parse_u64("scenario-idx", argv[3], std::size(sys::kAllScenarios) - 1) : 1;
  const std::string trace_path = argc > 4 ? argv[4] : "";
  const std::string counters_path = argc > 5 ? argv[5] : "";

  sys::WorkloadSet set{scale};
  sys::SystemConfig cfg;
  cfg.scenario = sys::kAllScenarios[scen_idx];
  obs::RunObserver observer;
  if (!trace_path.empty() || !counters_path.empty()) cfg.observer = &observer;
  sys::System system{cfg};
  const auto r = system.run(set.profile(wl_name));

  std::printf("start=%.1fC peak=%.1fC exec=%.2fms warn=%llu\n", r.start_dram_temp.value(),
              r.peak_dram_temp.value(), r.exec_time.as_ms(),
              static_cast<unsigned long long>(r.thermal_warnings));
  for (std::size_t i = 0; i < r.dram_temp.size(); i += 10) {
    std::printf("t=%7.3fms  T=%5.1fC  pim=%4.2f op/ns  bw=%6.1f GB/s\n",
                r.dram_temp.time_at(i).as_ms(), r.dram_temp.value_at(i),
                r.pim_rate.value_at(i), r.link_bw.value_at(i));
  }

  if (!trace_path.empty()) {
    std::ofstream out{trace_path};
    obs::TraceTrack track{0, r.workload + " / " + r.scenario, &observer.trace_buffer};
    obs::write_chrome_trace(out, {track});
    std::printf("trace: %s (%zu events)\n", trace_path.c_str(), observer.trace_buffer.size());
  }
  if (!counters_path.empty()) {
    std::ofstream out{counters_path};
    for (const auto& [name, value] : observer.counters.snapshot()) {
      out << name << "," << value << "\n";
    }
    std::printf("counters: %s\n", counters_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
