// Shared infrastructure for the reproduction benches: every bench binary
// prints its paper table/figure and exits, so running each bench_* binary in
// build/bench regenerates the whole evaluation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sys/run_config.hpp"
#include "sys/system.hpp"

namespace coolpim::bench {

/// The process-wide run configuration: COOLPIM_* environment at first use,
/// with any --flags overlaid by parse_args().  Every bench knob
/// (scale, jobs, observability sinks, fault environment) resolves through
/// this one sys::RunConfig.
[[nodiscard]] const sys::RunConfig& run_config();

/// Graph scale used by the full-system benches (run_config().scale, clamped
/// to the bench-supported [8, 24] range; override with COOLPIM_SCALE).
[[nodiscard]] unsigned bench_scale();

/// Lazily-built workload set shared within one bench process.
[[nodiscard]] const sys::WorkloadSet& workloads();

/// Results of one workload across all scenarios in sys::kAllScenarios.
struct ScenarioRow {
  std::string workload;
  std::map<sys::Scenario, sys::RunResult> runs;

  [[nodiscard]] const sys::RunResult& at(sys::Scenario s) const { return runs.at(s); }
  [[nodiscard]] double speedup(sys::Scenario s) const {
    return at(sys::Scenario::kNonOffloading).exec_time / at(s).exec_time;
  }
  [[nodiscard]] double normalized_consumption(sys::Scenario s) const {
    return at(s).consumption_bytes() /
           at(sys::Scenario::kNonOffloading).consumption_bytes();
  }
};

/// Run every workload under every scenario (the Fig. 10-13 matrix) across
/// the parallel runner (jobs = COOLPIM_JOBS or all cores; results are
/// bit-identical at any jobs count).  Cached for the lifetime of the process.
[[nodiscard]] const std::vector<ScenarioRow>& scenario_matrix();

/// Run a single (workload, scenario) pair with an optionally tweaked config.
/// Every call runs (and, when observed, traces) the experiment, so a bench
/// asks for each distinct experiment once.
[[nodiscard]] sys::RunResult run_one(const std::string& workload, sys::Scenario scenario,
                                     const sys::SystemConfig& base = {});

/// Bench command line: call first in main().  Overlays the RunConfig flags
/// (--scale, --jobs, --trace FILE, --counters FILE, ...) onto the COOLPIM_*
/// environment and throws ConfigError on any argument left over.  With a
/// trace or counter sink set, every experiment the bench runs is recorded
/// and the files are written when the process exits.  Schema:
/// docs/OBSERVABILITY.md.
void parse_args(int argc, char** argv);

}  // namespace coolpim::bench
