#include "support.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>

#include "common/error.hpp"
#include "obs/observer.hpp"
#include "runner/experiment.hpp"

namespace coolpim::bench {

namespace {

/// Single mutable slot behind run_config(): COOLPIM_* environment at first
/// use, --flags overlaid by parse_args() before anything consumes it.
sys::RunConfig& mutable_run_config() {
  static sys::RunConfig rc = sys::RunConfig::from_env();
  return rc;
}

/// Process-wide observability sink shared by every run the bench issues.
/// Output files are flushed from the destructor at normal process exit.
struct ObsState {
  std::optional<obs::SweepObserver> obs;

  ObsState() { refresh(); }

  void refresh() {
    const auto& rc = mutable_run_config();
    if (!obs && (!rc.trace_path.empty() || !rc.counters_path.empty())) {
      obs.emplace(!rc.trace_path.empty(), !rc.counters_path.empty());
    }
  }

  ~ObsState() {
    if (!obs) return;
    const auto& rc = mutable_run_config();
    if (!rc.trace_path.empty()) {
      std::ofstream out{rc.trace_path};
      if (out) {
        obs->write_trace(out);
        std::cerr << "Trace written to " << rc.trace_path << "\n";
      }
    }
    if (!rc.counters_path.empty()) {
      std::ofstream out{rc.counters_path};
      if (out) {
        obs->write_counters_csv(out);
        std::cerr << "Counter CSV written to " << rc.counters_path << "\n";
      }
    }
  }
};

ObsState& obs_state() {
  static ObsState state;
  return state;
}

/// Benches inherit the process fault environment unless the caller brought
/// its own (a bench sweeping fault rates sets them explicitly on `base`).
sys::SystemConfig with_process_faults(sys::SystemConfig base) {
  if (!base.fault.enabled()) run_config().apply_to(base);
  return base;
}

/// Runner options for every bench experiment: the configured jobs count and
/// the process-wide observer, if a sink is set.
runner::RunOptions run_options() {
  runner::RunOptions opt;
  opt.jobs = run_config().jobs;
  if (auto& state = obs_state(); state.obs) opt.obs = &*state.obs;
  return opt;
}

}  // namespace

const sys::RunConfig& run_config() { return mutable_run_config(); }

void parse_args(int argc, char** argv) {
  auto& rc = mutable_run_config();
  rc = sys::RunConfig::from_args(&argc, argv, rc);
  if (argc > 1) {
    throw ConfigError("unknown option: " + std::string{argv[1]} + "\naccepted flags:\n" +
                      sys::RunConfig::flags_help());
  }
  obs_state().refresh();
}

unsigned bench_scale() { return run_config().scale; }

const sys::WorkloadSet& workloads() {
  static const sys::WorkloadSet set{bench_scale(), run_config().graph_seed, false,
                                    run_config().build_options()};
  return set;
}

sys::RunResult run_one(const std::string& workload, sys::Scenario scenario,
                       const sys::SystemConfig& base) {
  return runner::run_one(workloads(), workload, scenario, with_process_faults(base),
                         run_options());
}

const std::vector<ScenarioRow>& scenario_matrix() {
  static const std::vector<ScenarioRow> matrix = [] {
    const std::vector<sys::Scenario> scenarios{std::begin(sys::kAllScenarios),
                                               std::end(sys::kAllScenarios)};
    auto computed = runner::run_matrix(workloads(), sys::workload_names(), scenarios,
                                       with_process_faults({}), run_options());
    std::vector<ScenarioRow> rows;
    rows.reserve(computed.size());
    for (auto& r : computed) {
      rows.push_back(ScenarioRow{std::move(r.workload), std::move(r.runs)});
    }
    return rows;
  }();
  return matrix;
}

}  // namespace coolpim::bench
