// Parallel experiment API: run independent full-system simulations across a
// work-stealing pool with deterministic, schedule-independent results.
//
// Every task is identified by a stable 64-bit key -- an FNV-1a hash of the
// workload-set identity (scale, graph seed), the workload name and every
// field of its SystemConfig.  The task's RNG seed (SystemConfig::run_seed)
// is derived from the key, so a task draws the same random stream no matter
// which thread runs it, in what order, or at what jobs count.  jobs=1 and
// jobs=N sweeps are bit-identical (property-tested in test_runner).  Every
// call runs its experiments: nothing is memoized across calls, so a traced
// sweep's output depends only on the sweep, not on what the process ran
// before it.
//
// Because run_seed is derived from the key, it is excluded from the hash
// itself; the runner overwrites whatever value the caller left there.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "sys/system.hpp"

namespace coolpim::runner {

/// One unit of work: a workload name resolved against the sweep's
/// WorkloadSet, plus the full system configuration (scenario included).
struct Experiment {
  std::string workload;
  sys::SystemConfig config{};
};

struct RunOptions {
  /// Worker count; 0 = Pool::default_jobs() (COOLPIM_JOBS env or all cores).
  unsigned jobs{0};
  /// Must be 1; run_sweep throws ConfigError on any other value.  Kept only
  /// because the repository benchmark's harness still assigns it; the field
  /// goes away in the benchmark change that drops that assignment.
  unsigned sweep_batch{1};
  /// Must be false; run_sweep/run_one throw ConfigError when it is true.
  /// Kept, like sweep_batch, only for the benchmark harness's assignment.
  bool use_cache{false};
  /// Sweep-level observability collector (nullptr = no recording).  Each
  /// task gets its own RunObserver, allocated on the submitting thread in
  /// submission order, so the merged trace/counter files are byte-identical
  /// at any jobs count.
  obs::SweepObserver* obs{nullptr};
};

/// Stable hash of every behaviour-affecting SystemConfig field (run_seed
/// excluded -- see file comment).
[[nodiscard]] std::uint64_t config_hash(const sys::SystemConfig& cfg);

/// Task identity: workload-set identity + workload name + config.
[[nodiscard]] std::uint64_t experiment_key(const sys::WorkloadSet& set,
                                           const std::string& workload,
                                           const sys::SystemConfig& cfg);

/// Per-task RNG seed from a task key (SplitMix64 finalizer over the key).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t key);

/// Run all experiments concurrently; results come back in experiment order.
[[nodiscard]] std::vector<sys::RunResult> run_sweep(const sys::WorkloadSet& set,
                                                    const std::vector<Experiment>& experiments,
                                                    const RunOptions& opt = {});

/// One row of a (workload x scenario) matrix.
struct MatrixRow {
  std::string workload;
  std::map<sys::Scenario, sys::RunResult> runs;
};

/// Cross-product sweep: every workload under every scenario on a shared base
/// config (the Fig. 10-13 evaluation shape).
[[nodiscard]] std::vector<MatrixRow> run_matrix(const sys::WorkloadSet& set,
                                                const std::vector<std::string>& workloads,
                                                const std::vector<sys::Scenario>& scenarios,
                                                const sys::SystemConfig& base = {},
                                                const RunOptions& opt = {});

/// Single (workload, scenario) run through the same key/seed path.
[[nodiscard]] sys::RunResult run_one(const sys::WorkloadSet& set, const std::string& workload,
                                     sys::Scenario scenario,
                                     const sys::SystemConfig& base = {},
                                     const RunOptions& opt = {});

}  // namespace coolpim::runner
