// perfbench_harness -- drives one benchmark workload through the simulator's
// public API and prints its raw wall-clock measurements as one JSON line.
//
// Every timer wraps a call into a public header: sys::WorkloadSet,
// runner::run_sweep, sys::SystemRun, thermal::HmcThermalModel,
// gpu::CacheHitModel, graph::make_ldbc_like, thermal::BatchStackModel and
// fleet::run_fleet.  Nothing inside src/ is instrumented.  The simulated
// outputs of every run go to --outputs as "# run <label>" blocks, which
// run.py checks against the committed reference and against each other.
// perfbench/README.md describes the workloads and metrics.
//
// usage: perfbench_harness --workload paper-sweep|throttle-s18|fleet-grid
//            --graph-seed N --seconds S --trace 0|1 --jobs J
//            --work-dir DIR --outputs FILE
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.hpp"
#include "gpu/characterize.hpp"
#include "graph/generator.hpp"
#include "hmc/link_model.hpp"
#include "obs/names.hpp"
#include "obs/observer.hpp"
#include "power/energy_model.hpp"
#include "runner/experiment.hpp"
#include "runner/pool.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"
#include "sys/system_run.hpp"
#include "sys/workloads.hpp"
#include "thermal/batch_stack_model.hpp"
#include "thermal/hmc_thermal.hpp"

extern char** environ;

using namespace coolpim;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t graph_seed{1};
  double seconds{10.0};
  bool trace{false};
  unsigned jobs{1};
  std::string work_dir;
  std::string outputs;
};

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "perfbench_harness: " << msg << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--graph-seed") a.graph_seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--jobs") a.jobs = static_cast<unsigned>(std::stoul(v));
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--outputs") a.outputs = v;
    else fail("unknown flag " + flag);
  }
  if (a.workload.empty() || a.work_dir.empty() || a.outputs.empty() || a.jobs == 0) {
    fail("--workload, --work-dir, --outputs and a positive --jobs are required");
  }
  return a;
}

/// COOLPIM_JOBS, COOLPIM_PROFILE_CACHE, COOLPIM_SWEEP_BATCH and friends
/// silently change the program under test; run.py clears them, and the
/// harness refuses to measure if any survived.
void require_clean_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "COOLPIM_", 8) == 0) fail(std::string{"environment sets "} + *e);
  }
  if (std::string_view{PERFBENCH_BUILD_TYPE} != "Release") {
    fail(std::string{"built as '"} + PERFBENCH_BUILD_TYPE + "'; the benchmark needs Release");
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- JSON output ----------------------------------------------------------

/// Flat JSON object: numbers, strings and number arrays, in insertion order.
class Json {
 public:
  void num(const std::string& key, double v) { field(key) << fmt(v); }
  void str(const std::string& key, const std::string& v) { field(key) << '"' << v << '"'; }
  void list(const std::string& key, const std::vector<double>& vs) {
    std::ostream& os = field(key);
    os << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) os << (i ? "," : "") << fmt(vs[i]);
    os << ']';
  }
  [[nodiscard]] std::string text() const { return "{" + body_.str() + "}"; }

 private:
  static std::string fmt(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  }
  std::ostream& field(const std::string& key) {
    if (!first_) body_ << ',';
    first_ = false;
    body_ << '"' << key << "\":";
    return body_;
  }
  std::ostringstream body_;
  bool first_{true};
};

/// Simulated outputs, one labelled block per run, for run.py to check.
class Outputs {
 public:
  explicit Outputs(const std::string& path) : out_{path} {
    if (!out_) fail("cannot write " + path);
  }
  void block(const std::string& label, const std::string& body) {
    out_ << "# run " << label << '\n' << body;
  }
  void error(const std::string& label, const std::string& what) {
    out_ << "# run " << label << "\n# error " << what << '\n';
  }

 private:
  std::ofstream out_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Sweep workloads --------------------------------------------------------

struct SweepSpec {
  unsigned scale;
  /// Prime a profile cache before timing, so set-up times the cache-read
  /// path; otherwise set-up profiles every workload from scratch.
  bool warm_profile_cache;
};

/// The paper's Fig. 10-13 matrix: ten workloads x eight scenarios.
std::vector<runner::Experiment> paper_matrix() {
  std::vector<runner::Experiment> out;
  for (const auto& w : sys::workload_names()) {
    for (const sys::Scenario s : sys::kAllScenarios) {
      runner::Experiment e;
      e.workload = w;
      e.config.scenario = s;
      e.config.cooling = power::CoolingType::kCommodityServer;
      out.push_back(std::move(e));
    }
  }
  return out;
}

sys::WorkloadSet::BuildOptions build_options(const Args& a, const SweepSpec& spec,
                                             unsigned jobs) {
  sys::WorkloadSet::BuildOptions bo;
  bo.jobs = jobs;
  bo.use_cache = spec.warm_profile_cache;
  if (spec.warm_profile_cache) bo.cache_dir = a.work_dir + "/profile-cache";
  return bo;
}

std::string summary_csv(const std::vector<sys::RunResult>& runs) {
  std::ostringstream os;
  sys::write_summary_csv(os, runs);
  return os.str();
}

/// One timed run_sweep, result cache off; its outputs go to `out`.
/// Returns the wall time in ms, or a negative value if the sweep threw.
double timed_sweep(const sys::WorkloadSet& set, const std::vector<runner::Experiment>& exps,
                   unsigned jobs, const std::string& label, Outputs& out, double* sim_ms) {
  runner::RunOptions opt;
  opt.jobs = jobs;
  opt.sweep_batch = 1;
  opt.use_cache = false;
  try {
    const auto t0 = Clock::now();
    const std::vector<sys::RunResult> runs = runner::run_sweep(set, exps, opt);
    const double wall = ms_since(t0);
    double sim = 0.0;
    for (const auto& r : runs) sim += r.exec_time.as_ms();
    if (sim_ms != nullptr) *sim_ms = sim;
    out.block(label, summary_csv(runs));
    return wall;
  } catch (const std::exception& e) {
    out.error(label, e.what());
    return -1.0;
  }
}

void prime_cache(const Args& a, const SweepSpec& spec) {
  if (spec.warm_profile_cache) {
    const sys::WorkloadSet primer{spec.scale, a.graph_seed, false,
                                  build_options(a, spec, a.jobs)};
  }
}

void sweep_untraced(const Args& a, const SweepSpec& spec, Json& js, Outputs& out) {
  prime_cache(a, spec);
  // Set-up: build the WorkloadSet several times; the last one is kept.
  std::vector<double> setup_ms;
  std::unique_ptr<sys::WorkloadSet> set;
  for (int rep = 0; rep < 15; ++rep) {
    set.reset();
    const auto t0 = Clock::now();
    set = std::make_unique<sys::WorkloadSet>(spec.scale, a.graph_seed, false,
                                             build_options(a, spec, a.jobs));
    setup_ms.push_back(ms_since(t0));
  }
  js.list("setup_ms", setup_ms);
  if (spec.warm_profile_cache && set->build_stats().cache_hits == 0) {
    fail("the profile cache was not primed; set-up would time the compute path");
  }

  const std::vector<runner::Experiment> exps = paper_matrix();
  std::vector<double> wall_ms, sim_ms;
  const auto start = Clock::now();
  for (int rep = 0; rep == 0 || ms_since(start) < a.seconds * 1e3; ++rep) {
    double sim = 0.0;
    const double wall = timed_sweep(*set, exps, a.jobs, "rep" + std::to_string(rep), out, &sim);
    if (wall >= 0.0) {
      wall_ms.push_back(wall);
      sim_ms.push_back(sim);
    }
  }
  js.num("experiments", static_cast<double>(exps.size()));
  js.list("rep_wall_ms", wall_ms);
  js.list("rep_sim_ms", sim_ms);
}

/// Counters summed over the traced experiments, by obs name.
constexpr std::string_view kTracedCounters[] = {
    obs::names::kThermalSteadySolves, obs::names::kThermalSteadyIterations,
    obs::names::kSysEpochs,           obs::names::kSysThermalWarningsDelivered,
    obs::names::kHmcServedReads,      obs::names::kHmcServedWrites,
    obs::names::kHmcServedPimOps,     obs::names::kControlLevelChanges,
    obs::names::kControlMpcRollouts,
};

/// thermal.steady_ms_per_solve: cold SOR solves of the commodity stack at the
/// warm operating point SystemRun starts every experiment from.
double steady_ms_per_solve() {
  thermal::HmcThermalModel model{
      thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  const hmc::LinkModel link{hmc::hmc20_config()};
  power::OperatingPoint warm{};
  warm.link_raw = link.config().link_raw_total();
  warm.dram_internal = link.max_data_bandwidth();
  model.apply_power(power::compute_power(power::EnergyParams{}, warm));
  std::vector<double> ms;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    model.solve_steady(thermal::SteadyStart::kCold);
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

void sweep_traced(const Args& a, const SweepSpec& spec, Json& js, Outputs& out) {
  prime_cache(a, spec);
  obs::CounterRegistry build_counters;
  sys::WorkloadSet::BuildOptions bo = build_options(a, spec, 1);
  bo.counters = &build_counters;
  auto t0 = Clock::now();
  const sys::WorkloadSet set{spec.scale, a.graph_seed, false, bo};
  js.num("graph.workloadset_ms", ms_since(t0));
  js.num("graph.profiles_computed",
         static_cast<double>(build_counters.counter_value(obs::names::kGraphProfilesComputed)));
  js.num("graph.profile_cache_hits",
         static_cast<double>(build_counters.counter_value(obs::names::kGraphProfileCacheHits)));
  {
    runner::Pool pool{1};
    t0 = Clock::now();
    const graph::CsrGraph g = graph::make_ldbc_like(spec.scale, a.graph_seed, &pool);
    js.num("graph.ldbc_build_ms", ms_since(t0));
  }
  js.num("thermal.steady_ms_per_solve", steady_ms_per_solve());

  const std::vector<runner::Experiment> exps = paper_matrix();
  // The parallel-efficiency base: untraced, at the load width.
  js.num("untraced_jobs_ms", timed_sweep(set, exps, a.jobs, "untraced-jobs", out, nullptr));

  // Each experiment runs twice, back to back, so machine drift cancels in
  // the trace overhead: untraced through System::run (the path run_sweep's
  // tasks take), then traced -- System::run's scalar driver loop with every
  // phase timed and an observer attached for counters.
  std::map<std::string_view, double> counters;
  std::vector<double> setup_ms, experiment_ms;
  double untraced_ms = 0.0, hit_model_ms = 0.0, advance_ms = 0.0, step_ms = 0.0;
  double steps = 0.0;
  std::vector<sys::RunResult> untraced_runs, runs;
  try {
    for (const runner::Experiment& e : exps) {
      sys::SystemConfig cfg = e.config;
      cfg.run_seed = runner::derive_seed(runner::experiment_key(set, e.workload, cfg));
      const graph::WorkloadProfile& profile = set.profile(e.workload);

      t0 = Clock::now();
      untraced_runs.push_back(sys::System{cfg}.run(profile));
      untraced_ms += ms_since(t0);

      obs::RunObserver observer;
      cfg.observer = &observer;
      const auto exp0 = Clock::now();
      sys::SystemRun run{cfg, profile};
      setup_ms.push_back(ms_since(exp0));
      for (;;) {
        t0 = Clock::now();
        const bool more = run.advance();
        advance_ms += ms_since(t0);
        if (!more) break;
        t0 = Clock::now();
        run.thermal().step(run.pending_dt());
        step_ms += ms_since(t0);
        steps += 1.0;
      }
      runs.push_back(run.take_result());
      experiment_ms.push_back(ms_since(exp0));
      for (const std::string_view name : kTracedCounters) {
        counters[name] += static_cast<double>(observer.counters.counter_value(name));
      }

      // The L2 replay SystemRun performed, with the same arguments, alone.
      // It runs after the experiment so it cannot warm the experiment's
      // caches.
      t0 = Clock::now();
      const gpu::CacheHitModel hit{cfg.gpu, static_cast<std::uint64_t>(profile.graph_vertices) * 8,
                                   1 << 20, cfg.run_seed};
      hit_model_ms += ms_since(t0);
    }
    out.block("untraced-jobs1", summary_csv(untraced_runs));
    out.block("traced", summary_csv(runs));
  } catch (const std::exception& ex) {
    out.error("untraced-jobs1", ex.what());
    out.error("traced", ex.what());
  }
  js.num("untraced_jobs1_ms", untraced_ms);
  js.num("gpu.hit_model_ms", hit_model_ms);
  js.num("gpu.hit_model_calls", static_cast<double>(exps.size()));
  js.num("sys.advance_ms", advance_ms);
  js.num("thermal.step_ms", step_ms);
  js.num("thermal.step_calls", steps);
  js.list("setup_ms_each", setup_ms);
  js.list("experiment_ms_each", experiment_ms);
  for (const auto& [name, value] : counters) js.num(std::string{name}, value);
}

// ---- Fleet workload ---------------------------------------------------------

struct Rack {
  const char* name;
  std::size_t dram_dies;
  bool adi;
  double duration_ms;
};

/// Two racks back to back: the default 8-die stack on the explicit batched
/// kernel, and the 16-die HBM-class stack on ADI.
constexpr Rack kRacks[] = {{"grid8", 8, false, 1000.0}, {"grid16", 16, true, 5000.0}};

fleet::FleetConfig rack_config(const Args& a, const Rack& rack, unsigned jobs) {
  fleet::FleetConfig cfg;
  cfg.nodes = 8;
  cfg.node.ambient_c = 35.0;
  cfg.node.queue_capacity = 32;  // coolpim_fleet's default
  cfg.rack_ambient_spread_c = 10.0;
  cfg.balancer = "thermal-aware";
  cfg.arrival_rate_per_s = 4000.0;
  cfg.duration_ms = rack.duration_ms;
  cfg.profiles = fleet::synthetic_profiles();
  cfg.seed = a.graph_seed;
  cfg.jobs = jobs;
  cfg.thermal = fleet::ThermalFidelity::kGrid;
  cfg.grid.dram_dies = rack.dram_dies;
  cfg.grid.use_adi = rack.adi;
  return cfg;
}

/// The rack's batched thermal stack exactly as run_fleet builds it before
/// its first epoch (fleet/fleet.cpp): stencil compile, ADI plan, ambients.
void build_rack_grid(const fleet::FleetConfig& cfg) {
  thermal::StackSpec spec =
      thermal::hbm_stack_spec(cfg.grid.dram_dies, cfg.grid.grid_nx, cfg.grid.grid_ny);
  for (auto& layer : spec.layers) layer.volumetric_heat_capacity *= cfg.grid.heat_capacity_scale;
  spec.sink_heat_capacity *= cfg.grid.heat_capacity_scale;
  spec.ambient = Celsius{cfg.node.ambient_c};
  thermal::BatchOptions opt;
  opt.kernel = cfg.grid.use_adi ? thermal::TransientKernel::kAdi
                                : thermal::TransientKernel::kExplicit;
  opt.adi_dt_factor = cfg.grid.adi_dt_factor;
  thermal::BatchStackModel grid{spec, cfg.nodes, opt};
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    grid.set_lane_ambient(i, Celsius{cfg.node.ambient_c + cfg.rack_ambient_spread_c *
                                                              static_cast<double>(i) /
                                                              static_cast<double>(cfg.nodes - 1)});
  }
  grid.reset_to_ambient();
}

/// One timed run_fleet; outputs go to `out`.  Negative on a throw.
double timed_rack(const fleet::FleetConfig& cfg, const std::string& label, Outputs& out,
                  fleet::FleetResult* result = nullptr) {
  try {
    const auto t0 = Clock::now();
    fleet::FleetResult r = fleet::run_fleet(cfg);
    const double wall = ms_since(t0);
    out.block(label, r.node_summary_csv());
    if (result != nullptr) *result = std::move(r);
    return wall;
  } catch (const std::exception& e) {
    out.error(label, e.what());
    return -1.0;
  }
}

void fleet_untraced(const Args& a, Json& js, Outputs& out) {
  std::vector<double> setup_ms;
  for (int rep = 0; rep < 201; ++rep) {
    const auto t0 = Clock::now();
    for (const Rack& rack : kRacks) build_rack_grid(rack_config(a, rack, a.jobs));
    setup_ms.push_back(ms_since(t0));
  }
  js.list("setup_ms", setup_ms);

  // Each rack's wall times are kept apart: run.py combines per-rack medians.
  std::map<std::string, std::vector<double>> wall_ms;
  const auto start = Clock::now();
  for (int rep = 0; rep == 0 || ms_since(start) < a.seconds * 1e3; ++rep) {
    for (const Rack& rack : kRacks) {
      const double w = timed_rack(rack_config(a, rack, a.jobs),
                                  "rep" + std::to_string(rep) + " " + rack.name, out);
      if (w >= 0.0) wall_ms[rack.name].push_back(w);
    }
  }
  for (const Rack& rack : kRacks) {
    js.list(std::string{"rack_wall_ms."} + rack.name, wall_ms[rack.name]);
    js.num(std::string{"rack_sim_ms."} + rack.name, rack.duration_ms);
  }
}

void fleet_traced(const Args& a, Json& js, Outputs& out) {
  double untraced = 0.0, untraced_jobs = 0.0, traced = 0.0, rc = 0.0;
  double served = 0.0, deferred = 0.0, shed = 0.0;
  std::map<std::string_view, double> counters;
  for (const Rack& rack : kRacks) {
    // Untraced references, as for the sweeps: jobs 1 right before the traced
    // run (the trace-overhead base) and the load width (the parallel-
    // efficiency base).
    untraced += timed_rack(rack_config(a, rack, 1), std::string{"untraced-jobs1 "} + rack.name,
                           out);
    fleet::FleetConfig cfg = rack_config(a, rack, 1);
    obs::RunObserver observer;
    cfg.observer = &observer;
    fleet::FleetResult r;
    const double ms = timed_rack(cfg, std::string{"traced "} + rack.name, out, &r);
    js.num(std::string{"fleet."} + rack.name + "_ms", ms);
    traced += ms;
    served += static_cast<double>(r.served);
    deferred += static_cast<double>(r.deferrals);
    shed += static_cast<double>(r.shed);
    for (const std::string_view name :
         {obs::names::kThermalBatchLanes, obs::names::kThermalBatchSweeps,
          obs::names::kThermalBatchAdiSolves}) {
      counters[name] += static_cast<double>(observer.counters.counter_value(name));
    }

    untraced_jobs += timed_rack(rack_config(a, rack, a.jobs),
                                std::string{"untraced-jobs "} + rack.name, out);

    // The same rack on the RC node model: dispatch and balancing without the
    // grid.  Its outputs are a different model's, so they are not checked.
    fleet::FleetConfig rc_cfg = rack_config(a, rack, 1);
    rc_cfg.thermal = fleet::ThermalFidelity::kRc;
    const auto t0 = Clock::now();
    (void)fleet::run_fleet(rc_cfg);
    rc += ms_since(t0);
  }
  js.num("fleet.rc_ms", rc);
  js.num("fleet.requests_served", served);
  js.num("fleet.requests_deferred", deferred);
  js.num("fleet.requests_shed", shed);
  js.num("untraced_jobs1_ms", untraced);
  js.num("untraced_jobs_ms", untraced_jobs);
  js.num("traced_ms", traced);
  for (const auto& [name, value] : counters) js.num(std::string{name}, value);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  require_clean_environment();

  Json js;
  js.str("workload", a.workload);
  js.str("build_type", PERFBENCH_BUILD_TYPE);
  js.str("compiler", PERFBENCH_COMPILER);
  js.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  js.num("jobs", a.jobs);
  js.num("graph_seed", static_cast<double>(a.graph_seed));
  Outputs out{a.outputs};

  const std::map<std::string, SweepSpec> sweeps{
      {"paper-sweep", {14, false}},
      {"throttle-s18", {18, true}},
  };
  if (const auto it = sweeps.find(a.workload); it != sweeps.end()) {
    if (a.trace) sweep_traced(a, it->second, js, out);
    else sweep_untraced(a, it->second, js, out);
  } else if (a.workload == "fleet-grid") {
    if (a.trace) fleet_traced(a, js, out);
    else fleet_untraced(a, js, out);
  } else {
    fail("unknown workload " + a.workload);
  }
  js.num("peak_rss_mb", peak_rss_mb());
  std::cout << js.text() << std::endl;
  return 0;
}
