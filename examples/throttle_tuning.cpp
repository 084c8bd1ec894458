// Tuning the CoolPIM feedback loop: watch the PIM rate and DRAM temperature
// evolve under different controllers and control factors.
//
//   $ ./throttle_tuning [workload] [rmat-scale]
//
// Prints a side-by-side transient timeline (like the paper's Fig. 14) and a
// control-factor comparison, so a deployment can pick CF for its kernels.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "runner/experiment.hpp"
#include "sys/run_config.hpp"
#include "sys/system.hpp"

using namespace coolpim;

namespace {

runner::Experiment transient(const std::string& workload, sys::Scenario scenario,
                             std::uint32_t cf) {
  runner::Experiment e;
  e.workload = workload;
  e.config.scenario = scenario;
  e.config.warm_start = false;
  e.config.start_temp_override = 84.0;  // the device is already near the limit
  e.config.sw_control_factor = cf;
  e.config.hw_control_factor = cf;
  return e;
}

int run_tool(int argc, char** argv) {
  // COOLPIM_* environment over the example's defaults; positional args win.
  sys::RunConfig rc;
  rc.scale = 17;
  rc = sys::RunConfig::from_env(rc);
  const std::string workload = argc > 1 ? argv[1] : "pagerank";
  if (argc > 2) rc.scale = static_cast<unsigned>(parse_u64("rmat-scale", argv[2], 24));
  rc.validate();
  const unsigned scale = rc.scale;

  std::cout << "Throttle tuning on '" << workload << "' (scale " << scale << ")\n";
  const sys::WorkloadSet set{scale, rc.graph_seed, false, rc.build_options()};

  // Transient timeline: naive vs both CoolPIM mechanisms, run concurrently.
  const auto transients = runner::run_sweep(
      set, {transient(workload, sys::Scenario::kNaiveOffloading, 4),
            transient(workload, sys::Scenario::kCoolPimSw, 4),
            transient(workload, sys::Scenario::kCoolPimHw, 4)});
  const auto& naive = transients[0];
  const auto& sw = transients[1];
  const auto& hw = transients[2];

  const Time span = std::max({naive.exec_time, sw.exec_time, hw.exec_time});
  const std::size_t points = 16;
  const Time step = span / static_cast<std::int64_t>(points);
  const Time start = naive.pim_rate.time_at(0);
  Table timeline{"Transient: PIM rate (op/ns) and naive DRAM temperature over time"};
  timeline.header({"t (ms)", "naive rate", "naive T (C)", "SW rate", "HW rate"});
  auto sample = [&](const TimeSeries& ts, std::size_t i) {
    const Time when = start + step * static_cast<std::int64_t>(i);
    if (when > ts.times().back()) return std::string{"-"};
    return Table::num(ts.sample_at(when), 2);
  };
  for (std::size_t i = 0; i < points; ++i) {
    timeline.row({Table::num((step * static_cast<std::int64_t>(i)).as_ms(), 2),
                  sample(naive.pim_rate, i), sample(naive.dram_temp, i),
                  sample(sw.pim_rate, i), sample(hw.pim_rate, i)});
  }
  timeline.print(std::cout);

  // Control-factor comparison (sustained behaviour, warm start): one task
  // per CF, swept in parallel.
  const std::vector<std::uint32_t> cfs{2, 4, 8, 16};
  std::vector<runner::Experiment> cf_tasks;
  for (const std::uint32_t cf : cfs) {
    runner::Experiment e;
    e.workload = workload;
    e.config.scenario = sys::Scenario::kCoolPimHw;
    e.config.hw_control_factor = cf;
    cf_tasks.push_back(std::move(e));
  }
  const auto cf_runs = runner::run_sweep(set, cf_tasks);

  Table cf_table{"Control factor sweep (sustained, HW-DynT)"};
  cf_table.header({"CF (warps)", "Exec (ms)", "PIM rate (op/ns)", "Peak DRAM (C)"});
  for (std::size_t i = 0; i < cfs.size(); ++i) {
    const auto& r = cf_runs[i];
    cf_table.row({std::to_string(cfs[i]), Table::num(r.exec_time.as_ms(), 2),
                  Table::num(r.avg_pim_rate_op_per_ns(), 2),
                  Table::num(r.peak_dram_temp.value(), 1)});
  }
  cf_table.print(std::cout);

  std::cout << "Pick the smallest CF that still converges within your kernels' runtime:\n"
               "larger steps cool down faster but risk settling below the thermal budget\n"
               "(lost offloading benefit); smaller steps track the budget tighter.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
