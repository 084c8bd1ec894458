// Resilience sweep for the thermal-warning control loop, emitted as
// BENCH_resilience.json (schema coolpim-bench-resilience/1).
//
// The question the paper's controllers never face: what happens when the
// warning channel itself degrades?  This bench sweeps the deterministic
// fault layer (fault::FaultPlan) over both CoolPIM mechanisms on pagerank:
//
//  - drop sweep: warning-drop probability from 0 to 1.  At 0 the run is the
//    golden fault-free result; at 1 the controller is blind and only the
//    fail-safe watchdog (fault::Watchdog) stands between the stack and the
//    naive-offloading thermal profile (~89 C, derated service).
//  - noise sweep: Gaussian sensor noise at a fixed zero drop rate, checking
//    that a jittery temperature register does not destabilize throttling.
//
// The bench gates (exit 1) on the resilience contract: every drop-sweep run
// holds peak DRAM at or below the 85 C normal limit, and at full drop the
// watchdog actually engaged on both controllers.
//
// Flags: --out FILE (default BENCH_resilience.json), --quick (fewer sweep
// points), --scale N (graph scale override, default 16 to match the golden
// matrix).  Fault knobs are set explicitly per run -- the COOLPIM_FAULT_*
// process environment is deliberately not inherited here.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "runner/experiment.hpp"
#include "sys/system.hpp"

#include "perf_support.hpp"

using namespace coolpim;

namespace {

constexpr const char* kWorkload = "pagerank";

struct SweepRun {
  std::string scenario;
  double drop_rate{0.0};
  double noise_sigma_c{0.0};
  double peak_dram_c{0.0};
  double exec_ms{0.0};
  std::uint64_t warnings_delivered{0};
  std::uint64_t warnings_dropped{0};
  std::uint64_t watchdog_engagements{0};
};

SweepRun to_run(const sys::RunResult& r, const sys::SystemConfig& cfg) {
  SweepRun out;
  out.scenario = r.scenario;
  out.drop_rate = cfg.fault.warning_drop_rate;
  out.noise_sigma_c = cfg.fault.sensor_noise_sigma_c;
  out.peak_dram_c = r.peak_dram_temp.value();
  out.exec_ms = r.exec_time.as_ms();
  out.warnings_delivered = r.thermal_warnings;
  out.warnings_dropped = r.faults.warnings_dropped;
  out.watchdog_engagements = r.faults.watchdog_engagements;
  return out;
}

int run_tool(int argc, char** argv) {
  const std::string out = bench::arg_value(argc, argv, "--out", "BENCH_resilience.json");
  const bool quick = bench::arg_flag(argc, argv, "--quick");
  const unsigned scale = static_cast<unsigned>(
      parse_u64("--scale", bench::arg_value(argc, argv, "--scale", "16").c_str(), 24));

  const std::vector<double> drops = quick
                                        ? std::vector<double>{0.0, 0.5, 1.0}
                                        : std::vector<double>{0.0, 0.1, 0.25, 0.5,
                                                              0.75, 0.9, 1.0};
  const std::vector<double> noises =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.5, 1.0};
  const sys::Scenario scenarios[] = {sys::Scenario::kCoolPimSw, sys::Scenario::kCoolPimHw};

  std::cout << "Resilience sweep: " << kWorkload << " at scale " << scale << ", "
            << drops.size() << " drop rates x 2 controllers (+ " << noises.size()
            << " noise points)...\n";
  bench::StopWatch build_clock;
  const sys::WorkloadSet set{scale, 1};
  const double build_ms = build_clock.elapsed_ms();

  // One experiment per sweep cell; the parallel runner derives each run's
  // seed from its (workload, config) key, fault config included, so the
  // sweep is bit-identical at any COOLPIM_JOBS value.
  std::vector<runner::Experiment> experiments;
  for (const auto scenario : scenarios) {
    for (const double drop : drops) {
      runner::Experiment e;
      e.workload = kWorkload;
      e.config.scenario = scenario;
      e.config.fault.warning_drop_rate = drop;
      if (drop > 0.0) e.config.fault.force_enable = true;  // watchdog armed at 0 too
      experiments.push_back(std::move(e));
    }
    for (const double sigma : noises) {
      runner::Experiment e;
      e.workload = kWorkload;
      e.config.scenario = scenario;
      e.config.fault.sensor_noise_sigma_c = sigma;
      experiments.push_back(std::move(e));
    }
  }
  bench::StopWatch sweep_clock;
  const auto results = runner::run_sweep(set, experiments);
  const double sweep_ms = sweep_clock.elapsed_ms();

  std::vector<SweepRun> drop_runs, noise_runs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& cfg = experiments[i].config;
    (cfg.fault.sensor_noise_sigma_c > 0.0 ? noise_runs : drop_runs)
        .push_back(to_run(results[i], cfg));
  }

  // Resilience gate (threshold = the HMC normal limit the policy warns at).
  const double threshold_c = sys::SystemConfig{}.policy.normal_limit.value();
  double max_peak = 0.0;
  bool all_below = true;
  bool engaged_at_full_drop = true;
  for (const auto& r : drop_runs) {
    max_peak = std::max(max_peak, r.peak_dram_c);
    if (r.peak_dram_c > threshold_c) all_below = false;
    if (r.drop_rate >= 1.0 && r.watchdog_engagements == 0) engaged_at_full_drop = false;
  }
  for (const auto& r : noise_runs) {
    max_peak = std::max(max_peak, r.peak_dram_c);
    if (r.peak_dram_c > threshold_c) all_below = false;
  }
  const bool pass = all_below && engaged_at_full_drop;

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-resilience/1");
  json.kv("quick", quick);
  json.kv("scale", static_cast<std::uint64_t>(scale));
  json.kv("workload", std::string{kWorkload});
  json.kv("threshold_c", threshold_c);
  json.kv("workload_build_ms", build_ms);
  json.kv("sweep_wall_ms", sweep_ms);
  auto emit = [&](const char* key, const std::vector<SweepRun>& runs) {
    json.begin_array(key);
    for (const auto& r : runs) {
      json.begin_object();
      json.kv("scenario", r.scenario);
      json.kv("drop_rate", r.drop_rate);
      json.kv("noise_sigma_c", r.noise_sigma_c);
      json.kv("peak_dram_c", r.peak_dram_c);
      json.kv("exec_ms", r.exec_ms);
      json.kv("warnings_delivered", r.warnings_delivered);
      json.kv("warnings_dropped", r.warnings_dropped);
      json.kv("watchdog_engagements", r.watchdog_engagements);
      json.end();
    }
    json.end();
  };
  emit("drop_sweep", drop_runs);
  emit("noise_sweep", noise_runs);
  json.begin_object("gate");
  json.kv("max_peak_dram_c", max_peak);
  json.kv("all_below_threshold", all_below);
  json.kv("watchdog_engaged_at_full_drop", engaged_at_full_drop);
  json.kv("pass", pass);
  json.end();
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "bench_resilience: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  for (const auto& r : drop_runs) {
    std::cout << r.scenario << " drop=" << r.drop_rate << ": peak " << r.peak_dram_c
              << " C, " << r.warnings_delivered << " warnings, "
              << r.watchdog_engagements << " watchdog engagements\n";
  }
  std::cout << "Gate: max peak " << max_peak << " C vs limit " << threshold_c << " -> "
            << (pass ? "PASS" : "FAIL") << "\n"
            << "Results written to " << out << "\n";
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
