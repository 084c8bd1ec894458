// Run-level metrics collected by the full-system model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/timeseries.hpp"
#include "common/units.hpp"
#include "hmc/thermal_policy.hpp"

namespace coolpim::sys {

/// Fault-layer accounting for one run.  All-zero (active == false) unless the
/// run's FaultConfig was enabled; deliberately not part of the CSV report
/// schema -- resilience experiments consume it through bench_resilience.
struct FaultSummary {
  bool active{false};
  std::uint64_t warnings_offered{0};
  std::uint64_t warnings_delivered{0};
  std::uint64_t warnings_dropped{0};
  std::uint64_t warnings_corrupted{0};
  std::uint64_t retries{0};
  std::uint64_t retry_giveups{0};
  std::uint64_t spurious_warnings{0};
  std::uint64_t link_outages{0};
  std::uint64_t watchdog_engagements{0};
  std::uint64_t watchdog_disengagements{0};
};

/// One HMC cube's share of a run (RunResult::cubes, one entry per cube).
struct CubeResult {
  Celsius peak_dram_temp{0.0};   // measured pass (ambient under ideal thermal)
  Celsius final_dram_temp{0.0};  // at run end
  double pim_share{0.0};         // fraction of the measured pass's PIM ops
};

struct RunResult {
  std::string workload;
  std::string scenario;

  Time exec_time{Time::zero()};

  // Traffic totals over the measured pass.
  double link_data_bytes{0.0};
  double link_raw_bytes{0.0};
  double dram_internal_bytes{0.0};
  std::uint64_t pim_ops{0};
  std::uint64_t host_atomics{0};

  // Energy over the measured pass (cube dynamic+background plus cooling fan).
  double cube_energy_j{0.0};
  double fan_energy_j{0.0};

  // Thermal.
  Celsius peak_dram_temp{0.0};
  Celsius start_dram_temp{0.0};
  std::uint64_t thermal_warnings{0};
  bool shut_down{false};
  Time time_above_normal{Time::zero()};  // time spent derated (> 85 C)

  // Per cube, in cube order; not part of the CSV report schema.
  std::vector<CubeResult> cubes;

  // Fault injection / resilience (inactive on the fault-free path).
  FaultSummary faults{};

  // Sampled traces (Fig. 14-style).
  TimeSeries pim_rate{"pim_rate_op_per_ns"};
  TimeSeries dram_temp{"peak_dram_temp_c"};
  TimeSeries link_bw{"link_data_gbps"};

  [[nodiscard]] double avg_pim_rate_op_per_ns() const {
    const double secs = exec_time.as_sec();
    return secs > 0.0 ? static_cast<double>(pim_ops) / secs * 1e-9 : 0.0;
  }
  [[nodiscard]] double avg_link_data_gbps() const {
    const double secs = exec_time.as_sec();
    return secs > 0.0 ? link_data_bytes / secs * 1e-9 : 0.0;
  }
  /// Total data moved over the links -- Fig. 11's "bandwidth consumption".
  [[nodiscard]] double consumption_bytes() const { return link_raw_bytes; }
  [[nodiscard]] double total_energy_j() const { return cube_energy_j + fan_energy_j; }
};

}  // namespace coolpim::sys
