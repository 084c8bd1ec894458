// Re-enactment of the paper's HMC 1.1 prototype measurement campaign
// (Section III-A): ramp the bandwidth on the AC-510 module under a chosen
// heat sink, watch the stack heat transiently, and observe the conservative
// shutdown -- including the tens-of-seconds recovery the authors measured.
//
//   $ ./prototype_campaign [passive|low-end|high-end|all]
//
// `all` replays the campaign for every sink concurrently on the work-stealing
// pool (each replay owns its thermal model, so they are independent tasks)
// and prints the reports in sink order.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/main.hpp"
#include "common/table.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "hmc/thermal_policy.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "runner/pool.hpp"
#include "thermal/hmc_thermal.hpp"

using namespace coolpim;

namespace {

void run_campaign(power::CoolingType sink, std::ostream& out) {
  const hmc::LinkModel link{hmc::hmc11_config()};
  const power::EnergyParams energy;
  hmc::ThermalPolicy policy;
  policy.conservative_shutdown = true;  // HMC 1.1 stops rather than derates

  // The campaign: idle warm-up, then step the FPGA traffic generator up by
  // 10 GB/s every 200 ms until the 60 GB/s peak or a shutdown.
  // The FPGA traffic generator runs hot for the whole campaign.
  thermal::HmcThermalModel model{thermal::hmc11_thermal_config(sink, 30.0)};
  model.apply_power(power::compute_power(energy, power::OperatingPoint{}));
  model.solve_steady();  // module idles long before the test starts

  out << "HMC 1.1 prototype bandwidth ramp, " << power::prototype_cooling(sink).name
      << " (conservative shutdown ~" << policy.conservative_shutdown_temp.value()
      << " C die)\n";

  Table t{"Campaign log"};
  t.header({"t (ms)", "Offered BW (GB/s)", "Surface (C)", "Die (C)", "Event"});
  bool shut_down = false;
  bool warned = false;
  double bw = 0.0;
  Time now = Time::zero();
  const Time step = Time::ms(10);
  // Ramp for 1.2 s, then hold the peak until the stack settles (or stops).
  for (int i = 0; i <= 3000 && !shut_down; ++i) {
    bw = std::min(60.0, static_cast<double>(i / 20) * 10.0);  // step every 200 ms
    hmc::TransactionMix mix;
    mix.reads_per_sec = bw * 1e9 / 64.0;
    power::OperatingPoint op;
    op.link_raw = link.raw_link_bandwidth(mix);
    op.dram_internal = link.internal_dram_bandwidth(mix);
    model.apply_power(power::compute_power(energy, op));
    model.step(step);
    now += step;

    std::string event;
    if (policy.phase(model.peak_dram()) == hmc::ThermalPhase::kShutdown) {
      event = "SHUTDOWN (data lost)";
      shut_down = true;
    } else if (!warned && policy.warning(model.peak_dram())) {
      event = "first ERRSTAT thermal warning";
      warned = true;
    }
    const bool ramping = i <= 120;
    if ((ramping && i % 20 == 0) || (!ramping && i % 200 == 0) || !event.empty()) {
      t.row({Table::num(now.as_ms(), 0), Table::num(bw, 0),
             Table::num(model.surface().value(), 1), Table::num(model.peak_dram().value(), 1),
             event});
    }
  }
  t.print(out);

  if (shut_down) {
    // Recovery: the module cools with no traffic; the paper measured tens of
    // seconds before the link retrains and the (lost) contents reload.
    model.apply_power(power::compute_power(energy, power::OperatingPoint{}));
    // "Cool again" = back near the module's idle temperature (the FPGA next
    // to it keeps running, so it never reaches ambient).
    thermal::HmcThermalModel idle_ref{thermal::hmc11_thermal_config(sink, 30.0)};
    idle_ref.apply_power(power::compute_power(energy, power::OperatingPoint{}));
    idle_ref.solve_steady();
    const double resume_temp = idle_ref.peak_dram().value() + 3.0;
    Time cooled = Time::zero();
    while (model.peak_dram().value() > resume_temp && cooled < Time::sec(120)) {
      model.step(Time::ms(100));
      cooled += Time::ms(100);
    }
    out << "Shutdown at " << Table::num(now.as_ms(), 0) << " ms with " << bw
        << " GB/s offered.  The dies cool back to ~" << Table::num(resume_temp, 0)
        << " C within " << Table::num(std::max(cooled.as_sec(), 0.1), 1)
        << " s, but recovery = cool-down + link retraining + reloading the LOST\n"
           "cube contents -- tens of seconds end to end (paper Section III-A.2),\n"
           "far longer than any GPU kernel.  This is why reactive policies cannot\n"
           "substitute for source throttling on the prototype.\n";
  } else {
    out << "Ramp completed without shutdown: peak die "
        << Table::num(model.peak_dram().value(), 1) << " C at " << bw << " GB/s.\n";
  }
}

int run_tool(int argc, char** argv) {
  const std::string sink_name = argc > 1 ? argv[1] : "passive";
  if (sink_name == "all") {
    const std::vector<power::CoolingType> sinks{power::CoolingType::kPassive,
                                                power::CoolingType::kLowEndActive,
                                                power::CoolingType::kHighEndActive};
    std::vector<std::ostringstream> reports(sinks.size());
    runner::Pool pool;
    pool.parallel_for(sinks.size(), [&](std::size_t i) { run_campaign(sinks[i], reports[i]); });
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      if (i > 0) std::cout << "\n";
      std::cout << reports[i].str();
    }
    return 0;
  }

  power::CoolingType sink = power::CoolingType::kPassive;
  if (sink_name == "low-end") sink = power::CoolingType::kLowEndActive;
  else if (sink_name == "high-end") sink = power::CoolingType::kHighEndActive;
  else if (sink_name != "passive") {
    std::cerr << "usage: prototype_campaign [passive|low-end|high-end|all]\n";
    return 2;
  }
  run_campaign(sink, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
