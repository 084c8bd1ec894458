// Unified run configuration for every CoolPIM entry point.
//
// Apps, benches and examples used to each parse their own slice of the
// COOLPIM_* environment; RunConfig is the one place that vocabulary lives.
// Values resolve with precedence CLI > environment > default:
//
//   RunConfig rc = RunConfig::from_args(&argc, argv, RunConfig::from_env());
//
// from_args() consumes (removes from argv) exactly the flags it recognizes,
// so binaries with their own argument parsing can run it first and handle
// the remainder.  Malformed values throw ConfigError with the offending
// name, never silently default.
//
// The fault sub-config (--fault-* / COOLPIM_FAULT_*) is carried whole and
// applied to a SystemConfig with apply_to(); with no fault knob set it is the
// disabled default and apply_to() is a no-op, keeping experiment keys and
// golden results unchanged (see fault/fault_config.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault_config.hpp"
#include "sys/workloads.hpp"

namespace coolpim::sys {

struct SystemConfig;

struct RunConfig {
  /// Runner parallelism; 0 = all hardware threads (COOLPIM_JOBS / --jobs,
  /// range [0, runner::Pool::kMaxJobs]).
  unsigned jobs{0};
  /// Graph scale, 2^scale vertices (COOLPIM_SCALE / --scale, range [8, 24]).
  unsigned scale{18};
  /// Graph-generation seed (COOLPIM_GRAPH_SEED / --graph-seed).
  std::uint64_t graph_seed{1};
  /// Observability sinks (COOLPIM_TRACE|COUNTERS / --trace|--counters).
  std::string trace_path;
  std::string counters_path;
  /// Persistent workload-profile cache dir (COOLPIM_PROFILE_CACHE /
  /// --profile-cache); empty = off.
  std::string profile_cache_dir;
  /// Throttling-policy selection by registered name (COOLPIM_POLICY /
  /// --policy, see control/registry.hpp); empty = keep the scenario the
  /// entry point configured.
  std::string policy;
  /// Fitted policy-table CSV for the policy-table controller
  /// (COOLPIM_POLICY_TABLE / --policy-table); empty = compiled-in default.
  std::string policy_table_path;
  /// HMC service-backend fidelity tier by registered name
  /// (COOLPIM_HMC_BACKEND / --hmc-backend, see hmc/backend.hpp); empty =
  /// keep the entry point's default (epoch-throughput).
  std::string hmc_backend;
  /// Fleet-tier knobs (docs/FLEET.md), consumed by fleet entry points only.
  /// Node count (COOLPIM_FLEET_NODES / --fleet-nodes, range [1, 4096]).
  unsigned fleet_nodes{8};
  /// Open-loop Poisson arrival rate in requests/s (COOLPIM_ARRIVAL_RATE /
  /// --arrival-rate, must be positive).
  double arrival_rate{4000.0};
  /// Fleet balancer by registered name (COOLPIM_BALANCER / --balancer).
  /// Validated against the fleet registry by the fleet layer itself --
  /// sys:: sits below fleet:: and must not link it.
  std::string balancer{"thermal-aware"};
  /// DRAM die count for the stack geometry (COOLPIM_STACK_LAYERS /
  /// --stack-layers, range [0, 64]); 0 keeps the entry point's default
  /// geometry, >0 selects an hbm_stack_spec-style stack that tall (16-high
  /// is the HBM-class geometry where the ADI kernel earns its keep).
  unsigned stack_layers{0};
  /// Fault environment (COOLPIM_FAULT_* / --fault-*); default = fault-free.
  fault::FaultConfig fault{};

  bool operator==(const RunConfig&) const = default;

  /// Throws ConfigError on out-of-range values (also run by from_env /
  /// from_args after overlaying).
  void validate() const;

  /// Overlay the COOLPIM_* environment onto `base` (default: defaults).
  [[nodiscard]] static RunConfig from_env(RunConfig base);
  [[nodiscard]] static RunConfig from_env();

  /// Overlay recognized --flags onto `base`, removing them from argv.
  [[nodiscard]] static RunConfig from_args(int* argc, char** argv, RunConfig base);
  [[nodiscard]] static RunConfig from_args(int* argc, char** argv);

  /// The full precedence chain: defaults, then environment, then CLI.
  [[nodiscard]] static RunConfig resolve(int* argc, char** argv) {
    return from_args(argc, argv, from_env());
  }

  /// Copy the RunConfig-owned SystemConfig fields: the fault environment,
  /// the selected policy's scenario, and a loaded policy table.  A no-op
  /// relative to defaults when none of those knobs are set.
  void apply_to(SystemConfig& cfg) const;

  /// WorkloadSet build options implied by this config (jobs + cache dir).
  [[nodiscard]] WorkloadSet::BuildOptions build_options() const;

  /// One-line usage text for the flags from_args() consumes (for --help).
  [[nodiscard]] static std::string flags_help();
};

}  // namespace coolpim::sys
