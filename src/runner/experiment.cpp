#include "obs/names.hpp"
#include "runner/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "runner/pool.hpp"

namespace coolpim::runner {

namespace {

void hash_gpu(HashStream& h, const gpu::GpuConfig& g) {
  h.add(g.num_sms).add(g.threads_per_warp).add(g.threads_per_block);
  h.add(g.max_blocks_per_sm).add(g.max_warps_per_sm).add(g.clock.as_hz());
  h.add(g.l1_bytes).add(g.l1_ways).add(g.l2_bytes).add(g.l2_ways).add(g.line_bytes);
  h.add(g.mlp_per_warp).add(g.mem_latency.as_ps()).add(g.host_atomic_coalescing);
  h.add(g.offload_policy).add(g.pei_coherence_txns);
}

void hash_hmc(HashStream& h, const hmc::HmcConfig& c) {
  h.add(std::string_view{c.name}).add(c.capacity_bytes).add(c.dram_dies);
  h.add(c.vaults).add(c.banks).add(c.links);
  h.add(c.link_raw_per_link.as_bytes_per_sec()).add(c.link_data_per_link.as_bytes_per_sec());
  h.add(c.timing.tCL.as_ps()).add(c.timing.tRCD.as_ps());
  h.add(c.timing.tRP.as_ps()).add(c.timing.tRAS.as_ps());
  h.add(c.pim_capable).add(c.internal_peak.as_bytes_per_sec());
  h.add(c.access_granularity).add(c.open_page).add(c.row_bytes);
}

void hash_policy(HashStream& h, const hmc::ThermalPolicy& p) {
  h.add(p.normal_limit.value()).add(p.extended_limit.value()).add(p.shutdown_limit.value());
  h.add(p.warning_threshold.value());
  h.add(p.extended_service_scale).add(p.critical_service_scale);
  h.add(p.conservative_shutdown).add(p.conservative_shutdown_temp.value());
}

void hash_fault(HashStream& h, const fault::FaultConfig& f) {
  h.add(f.warning_drop_rate).add(f.errstat_corrupt_rate).add(f.spurious_warning_rate);
  h.add(f.warning_delay_max.as_ps());
  h.add(f.sensor_noise_sigma_c).add(f.sensor_quantization_c);
  h.add(f.sensor_stuck_rate).add(f.sensor_stuck_duration.as_ps());
  h.add(f.link_outage_rate).add(f.link_outage_duration.as_ps());
  h.add(f.retry.max_retries).add(f.retry.backoff_base.as_ps());
  h.add(f.retry.backoff_factor).add(f.retry.backoff_cap.as_ps());
  h.add(f.watchdog.enabled).add(f.watchdog.window.as_ps());
  h.add(f.watchdog.arm_margin_c).add(f.watchdog.min_interval.as_ps());
  h.add(f.watchdog.smoothing.as_ps());
  h.add(f.force_enable);
}

void hash_mpc(HashStream& h, const control::MpcConfig& m) {
  h.add(m.levels).add(m.horizon).add(m.threshold_c).add(m.guard_c).add(m.smoothing);
  h.add(m.settle_window.as_ps()).add(m.throttle_delay.as_ps());
  h.add(m.rc.tau_ms).add(m.rc.ambient_c).add(m.rc.pim_heat_fraction);
}

void hash_policy_table(HashStream& h, const control::PolicyTableConfig& t) {
  h.add(t.table.t_min_c).add(t.table.bin_width_c);
  for (const double a : t.table.allow) h.add(a);
  h.add(t.reduction_step).add(t.floor);
  h.add(t.settle_window.as_ps()).add(t.throttle_delay.as_ps());
}

void hash_energy(HashStream& h, const power::EnergyParams& e) {
  h.add(e.dram_energy_per_bit.value()).add(e.logic_energy_per_bit.value());
  h.add(e.fu_energy_per_bit.value()).add(e.fu_width_bits);
  h.add(e.background_logic.value()).add(e.background_dram.value());
  for (int i = 0; i < 3; ++i) {
    h.add(e.dram_energy_mult[i]).add(e.logic_energy_mult[i]).add(e.refresh_extra_watts[i]);
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The two fields the benchmark harness still assigns accept only their
/// defaults; jobs has the pool's bound, checked here because the sweep
/// sizes its pool to at most the experiment count.
void check_options(const RunOptions& opt) {
  COOLPIM_REQUIRE(opt.jobs <= Pool::kMaxJobs,
                  "RunOptions::jobs must be at most " + std::to_string(Pool::kMaxJobs));
  COOLPIM_REQUIRE(opt.sweep_batch == 1, "RunOptions::sweep_batch must be 1");
  COOLPIM_REQUIRE(!opt.use_cache, "RunOptions::use_cache must be false");
}

sys::RunResult run_task(const sys::WorkloadSet& set, const Experiment& e,
                        obs::SweepObserver::TaskRecord* rec) {
  const std::uint64_t key = experiment_key(set, e.workload, e.config);
  sys::SystemConfig cfg = e.config;
  cfg.run_seed = derive_seed(key);
  if (rec != nullptr) {
    rec->key = key;
    rec->seed = cfg.run_seed;
    cfg.observer = &rec->obs;
  }
  sys::System system{cfg};
  sys::RunResult result = system.run(set.profile(e.workload));
  if (rec != nullptr) {
    rec->exec_time = result.exec_time;
    // Top-level "runner" span over everything the task recorded (warm-up
    // included), tagged with the stable key and the seed derived from it.
    Time span_end = result.exec_time;
    for (const auto& ev : rec->obs.trace_buffer.events()) {
      span_end = std::max(span_end, ev.ts + ev.dur);
    }
    rec->obs.trace_buffer.complete(Time::zero(), span_end, obs::names::kCatRunner, "task",
                                   {{"workload", e.workload},
                                    {"scenario", result.scenario},
                                    {"key", hex64(key)},
                                    {"seed", hex64(cfg.run_seed)}});
  }
  return result;
}

/// Rethrows a failed experiment's exception with the experiment named in
/// front of its message.  The library error types are kept -- the CLIs map
/// ConfigError to exit code 2 -- and each carries its own tag ("config: ",
/// "sim: ") once, ahead of the experiment; any other exception propagates
/// unchanged.
[[noreturn]] void rethrow_in_context(const std::exception_ptr& err, const Experiment& e) {
  const std::string where = "experiment " + e.workload + " under " +
                            std::string{sys::to_string(e.config.scenario)} + ": ";
  const auto body = [](const std::exception& x, std::string_view tag) {
    std::string_view what = x.what();
    if (what.starts_with(tag)) what.remove_prefix(tag.size());
    return std::string{what};
  };
  try {
    std::rethrow_exception(err);
  } catch (const ConfigError& x) {
    throw ConfigError(where + body(x, "config: "));
  } catch (const SimError& x) {
    throw SimError(where + body(x, "sim: "));
  } catch (const Error& x) {
    throw Error(where + x.what());
  }
}

}  // namespace

std::uint64_t config_hash(const sys::SystemConfig& cfg) {
  HashStream h;
  hash_gpu(h, cfg.gpu);
  hash_hmc(h, cfg.hmc);
  hash_policy(h, cfg.policy);
  hash_energy(h, cfg.energy);
  h.add(cfg.cooling).add(cfg.scenario);
  h.add(cfg.epoch.as_ps()).add(cfg.warmup_epoch.as_ps()).add(cfg.thermal_delay.as_ps());
  h.add(cfg.sw_control_factor).add(cfg.hw_control_factor);
  h.add(cfg.target_rate_op_per_ns).add(cfg.eq1_margin_blocks);
  h.add(cfg.warm_start).add(cfg.start_temp_override).add(cfg.max_warmup_reps);
  h.add(cfg.warmup_tolerance_c).add(cfg.max_time.as_ps()).add(cfg.shutdown_recovery.as_ps());
  // Fault environment: hashed only when enabled, so every pre-existing
  // fault-free experiment keeps its key (and therefore its derived seed and
  // golden results) byte-for-byte.
  if (cfg.fault.enabled()) {
    h.add(true);
    hash_fault(h, cfg.fault);
  }
  // Predictive-policy configs: hashed only under their own scenario, same
  // key-stability reasoning as the fault gating above.
  if (cfg.scenario == sys::Scenario::kMpc) {
    h.add(true);
    hash_mpc(h, cfg.mpc);
  }
  if (cfg.scenario == sys::Scenario::kPolicyTable) {
    h.add(true);
    hash_policy_table(h, cfg.policy_table);
  }
  // Backend fidelity tier: hashed only off the default tier, same
  // key-stability reasoning again (the default tier is byte-identical to the
  // pre-contract simulator, so pre-contract keys stay valid for it).
  if (cfg.backend != hmc::BackendKind::kEpochThroughput) {
    h.add(true);
    h.add(cfg.backend);
  }
  // Cube count and hub skew: hashed only off the single-cube default (skew
  // has no effect there), so every single-cube key stays valid.
  if (cfg.cubes != 1) {
    h.add(true);
    h.add(static_cast<std::uint64_t>(cfg.cubes)).add(cfg.atomic_skew);
  }
  return h.digest();
}

std::uint64_t experiment_key(const sys::WorkloadSet& set, const std::string& workload,
                             const sys::SystemConfig& cfg) {
  HashStream h;
  h.add(set.scale()).add(set.seed());
  h.add(std::string_view{workload});
  h.u64(config_hash(cfg));
  return h.digest();
}

std::uint64_t derive_seed(std::uint64_t key) {
  // Salted so the seed stream is decoupled from the key stream.
  return mix_seed(key ^ 0xc001'0a1a'5eed'0001ULL);
}

std::vector<sys::RunResult> run_sweep(const sys::WorkloadSet& set,
                                      const std::vector<Experiment>& experiments,
                                      const RunOptions& opt) {
  check_options(opt);
  const std::size_t n = experiments.size();
  // Observer slots are allocated here, on the calling thread and in
  // experiment order, so the merged output files do not depend on which
  // thread runs which experiment.
  std::vector<obs::SweepObserver::TaskRecord*> records(n, nullptr);
  if (opt.obs != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      records[i] = opt.obs->add_task(experiments[i].workload,
                                     std::string{sys::to_string(experiments[i].config.scenario)});
    }
  }
  std::vector<sys::RunResult> results(n);
  // Failures land in per-experiment slots: the one rethrown is the lowest
  // index, not whichever finished first, so the error a sweep reports does
  // not depend on the jobs count.
  std::vector<std::exception_ptr> errors(n);
  // No more participants than experiments: a one-experiment sweep spawns no
  // thread.
  const unsigned jobs = opt.jobs > 0 ? opt.jobs : Pool::default_jobs();
  Pool pool{static_cast<unsigned>(std::clamp<std::size_t>(n, 1, jobs))};
  pool.parallel_for(n, [&](std::size_t i) {
    try {
      results[i] = run_task(set, experiments[i], records[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) rethrow_in_context(errors[i], experiments[i]);
  }
  return results;
}

std::vector<MatrixRow> run_matrix(const sys::WorkloadSet& set,
                                  const std::vector<std::string>& workloads,
                                  const std::vector<sys::Scenario>& scenarios,
                                  const sys::SystemConfig& base, const RunOptions& opt) {
  std::vector<Experiment> experiments;
  experiments.reserve(workloads.size() * scenarios.size());
  for (const auto& w : workloads) {
    for (const auto s : scenarios) {
      Experiment e;
      e.workload = w;
      e.config = base;
      e.config.scenario = s;
      experiments.push_back(std::move(e));
    }
  }
  auto results = run_sweep(set, experiments, opt);

  std::vector<MatrixRow> rows;
  rows.reserve(workloads.size());
  std::size_t idx = 0;
  for (const auto& w : workloads) {
    MatrixRow row;
    row.workload = w;
    for (const auto s : scenarios) row.runs.emplace(s, std::move(results[idx++]));
    rows.push_back(std::move(row));
  }
  return rows;
}

sys::RunResult run_one(const sys::WorkloadSet& set, const std::string& workload,
                       sys::Scenario scenario, const sys::SystemConfig& base,
                       const RunOptions& opt) {
  std::vector<Experiment> one(1);
  one[0].workload = workload;
  one[0].config = base;
  one[0].config.scenario = scenario;
  return std::move(run_sweep(set, one, opt).front());
}

}  // namespace coolpim::runner
