#include "sys/system_run.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.hpp"
#include "control/registry.hpp"
#include "hmc/link_model.hpp"
#include "hmc/packet.hpp"
#include "obs/names.hpp"

namespace coolpim::sys {

namespace {

/// Salt for cube i > 0's backend seed; cube 0 keeps run_seed, so a one-cube
/// run draws exactly the stream it always has.
constexpr std::uint64_t kCubeSeedSalt = 0xc0be'5eed'0000'0001ULL;

std::unique_ptr<control::Policy> make_controller(const SystemConfig& cfg,
                                                 const graph::WorkloadProfile& workload,
                                                 double link_flits_per_sec,
                                                 double naive_rate_estimate) {
  control::PolicyBuild build;
  build.scenario = cfg.scenario;
  build.sw.control_factor = cfg.sw_control_factor;
  build.sw.eq1.max_blocks = static_cast<std::uint32_t>(cfg.gpu.max_resident_blocks());
  build.sw.eq1.pim_intensity = workload.pim_intensity();
  build.sw.eq1.divergent_warp_ratio = workload.divergence_ratio();
  build.sw.eq1.target_rate_op_per_ns = cfg.target_rate_op_per_ns;
  build.sw.eq1.margin_blocks = cfg.eq1_margin_blocks;
  // Peak PIM rate: the link FLIT budget divided by 3 FLITs per op.
  build.sw.eq1.pim_peak_rate_op_per_ns =
      link_flits_per_sec / hmc::flit_cost(hmc::TransactionType::kPimNoReturn).total() * 1e-9;
  build.sw.eq1.estimated_naive_rate_op_per_ns = naive_rate_estimate;
  build.hw.max_warps_per_sm = static_cast<std::uint32_t>(cfg.gpu.max_warps_per_sm);
  build.hw.control_factor = cfg.hw_control_factor;
  build.mpc = cfg.mpc;
  build.table = cfg.policy_table;
  return control::make_policy(build);
}

/// Cube's share of a demand: regular traffic and PIM traffic scale apart.
hmc::EpochDemand share_of(hmc::EpochDemand demand, double regular, double pim) {
  demand.reads *= regular;
  demand.writes *= regular;
  demand.pim_ops *= pim;
  return demand;
}

}  // namespace

SystemRun::SystemRun(SystemConfig cfg, const graph::WorkloadProfile& workload)
    : cfg_{std::move(cfg)} {
  COOLPIM_REQUIRE(workload.graph_vertices > 0, "workload missing graph metadata");
  COOLPIM_REQUIRE(cfg_.cubes >= 1 && cfg_.cubes <= 8, "1..8 cubes supported");
  COOLPIM_REQUIRE(cfg_.atomic_skew >= 0.0 && cfg_.atomic_skew <= 1.0,
                  "atomic_skew must be a fraction");
  const std::size_t n = cfg_.cubes;
  const double cubes = static_cast<double>(n);
  auto make_cube_backend = [&](std::size_t i) {
    const std::uint64_t seed =
        i == 0 ? cfg_.run_seed : mix_seed(cfg_.run_seed ^ (kCubeSeedSalt * i));
    return hmc::make_backend(hmc::BackendBuild{cfg_.backend, cfg_.hmc, cfg_.policy, seed, {}});
  };
  cubes_.reserve(n);
  cubes_.push_back(Cube{make_cube_backend(0),
                        thermal::HmcThermalModel{thermal::hmc20_thermal_config(cfg_.cooling)}});
  thermal::HmcThermalModel& therm = cubes_[0].therm;

  // Observability: null handles when no observer is attached; every record
  // call below degenerates to one predictable branch.
  if (cfg_.observer != nullptr) {
    tr_ = cfg_.observer->trace();
    ctr_ = &cfg_.observer->counters;
  }
  cubes_[0].backend->set_observer(tr_, ctr_);

  const hmc::LinkModel& link = cubes_[0].backend->link();
  // Every cube brings its own links: Eq. 1 sees the aggregate FLIT budget.
  const double link_flits_per_sec = link.flits_per_sec() * cubes;
  ideal_ = cfg_.scenario == Scenario::kIdealThermal;

  // Property footprint: two 4-byte property arrays (e.g. level + frontier
  // flags) over the vertices is representative of the workloads here.
  gpu::CacheHitModel cache{cfg_.gpu,
                           static_cast<std::uint64_t>(workload.graph_vertices) * 8,
                           1 << 20, cfg_.run_seed};
  auto launches = gpu::build_launches(workload, cfg_.gpu, cache);

  // Static analysis for Eq. 1's PTP initialization: estimate the
  // un-throttled offloading rate from the launch totals and the link budget
  // (the "simple trial run" of the paper).
  double est_flits = 0.0, est_instr = 0.0, est_atomics = 0.0;
  for (const auto& l : launches) {
    est_flits += 6.0 * (l.mem.read_txns + l.mem.write_txns) + 3.0 * l.mem.atomic_ops;
    est_instr += l.warp_instructions;
    est_atomics += l.mem.atomic_ops;
  }
  const double est_time =
      std::max(est_flits / link_flits_per_sec, est_instr / cfg_.gpu.issue_rate_per_sec());
  const double naive_rate_estimate =
      est_time > 0.0 ? est_atomics / est_time * 1e-9 : 0.0;

  controller_ = make_controller(cfg_, workload, link_flits_per_sec, naive_rate_estimate);
  controller_->set_trace(tr_);
  controller_->set_counters(ctr_);
  engine_.emplace(cfg_.gpu, std::move(launches), *controller_);
  engine_->set_observer(tr_, ctr_);

  therm.set_observer(tr_, ctr_, cfg_.policy.warning_threshold);
  // Initial thermal state: the device has been serving the surrounding
  // application's regular (non-PIM) traffic at full link bandwidth, so start
  // from that steady state (~81 C with commodity cooling) unless overridden.
  // Every cube starts from the same state, solved once on cube 0.
  power::OperatingPoint warm{};
  warm.link_raw = link.config().link_raw_total();
  warm.dram_internal = link.max_data_bandwidth();
  therm.apply_power(power::compute_power(cfg_.energy, warm));
  therm.solve_steady();
  if (cfg_.start_temp_override > 0.0) {
    // Scale the warm operating point so the steady peak matches the override
    // (used by transient experiments that start just below the warning).
    double lo = 0.0, hi = 4.0;
    for (int i = 0; i < 24; ++i) {
      const double k = 0.5 * (lo + hi);
      power::OperatingPoint scaled{};
      scaled.link_raw = warm.link_raw * k;
      scaled.dram_internal = warm.dram_internal * k;
      therm.apply_power(power::compute_power(cfg_.energy, scaled));
      therm.solve_steady();
      if (therm.peak_dram().value() < cfg_.start_temp_override) lo = k; else hi = k;
    }
  }

  for (std::size_t i = 1; i < n; ++i) {
    // Backend-internal counters and spans are cube 0's alone: a cube that
    // serves ahead of the commit is offered that work again, so summing
    // backends would count it twice.  Thermal counters sum over cubes; the
    // thermal trace track stays cube 0's.
    cubes_.push_back(Cube{make_cube_backend(i), therm});
    cubes_[i].therm.set_observer(obs::Trace{}, ctr_, cfg_.policy.warning_threshold);
  }
  // Demand splitter: regular traffic stripes evenly; PIM traffic follows the
  // hub skew (cube 0 takes `atomic_skew`, the others split the rest).  Both
  // shares are exactly 1 at one cube.
  for (std::size_t i = 0; i < n; ++i) {
    cubes_[i].regular_share = 1.0 / cubes;
    cubes_[i].pim_share = n == 1 ? 1.0
                          : i == 0 ? cfg_.atomic_skew
                                   : (1.0 - cfg_.atomic_skew) / (cubes - 1.0);
  }

  sensor_.emplace(cfg_.thermal_delay, therm.peak_dram());

  // Fault layer: instantiated only when the config enables it, so fault-free
  // runs execute the exact pre-fault code path -- no extra RNG draws, no
  // behavioural drift from the pre-fault-layer simulator (DESIGN.md sect 10).
  faulty_ = cfg_.fault.enabled() && !ideal_;
  if (faulty_) {
    faults_.emplace(cfg_.fault, cfg_.run_seed);
    faults_->set_observer(tr_, ctr_);
    if (cfg_.fault.watchdog.enabled) {
      wdog_.emplace(cfg_.fault.watchdog, cfg_.policy.warning_threshold);
      wdog_->set_observer(tr_, ctr_);
    }
  }

  result_.workload = workload.name;
  result_.scenario = std::string(to_string(cfg_.scenario));

  if (cfg_.warm_start) {
    phase_ = Phase::kWarmupPass;
    prev_peak_ = hottest();
    prev_adjustments_ = controller_->adjustments();
    rep_ = 0;
  } else {
    phase_ = Phase::kMeasuredBegin;
  }
}

Celsius SystemRun::hottest() const {
  Celsius t = cubes_[0].therm.peak_dram();
  for (std::size_t i = 1; i < cubes_.size(); ++i) t = std::max(t, cubes_[i].therm.peak_dram());
  return t;
}

hmc::EpochService SystemRun::serve(const hmc::EpochDemand& demand, Time window) {
  auto temp = [&](const Cube& c) {
    return ideal_ ? c.therm.config().ambient : c.therm.peak_dram();
  };
  if (cubes_.size() == 1) return cubes_[0].backend->serve(demand, window, temp(cubes_[0]));
  hmc::EpochService agg{};
  for (Cube& c : cubes_) {
    const hmc::EpochService s = c.backend->serve(
        share_of(demand, c.regular_share, c.pim_share), window, temp(c));
    agg.served_fraction = std::min(agg.served_fraction, s.served_fraction);
    agg.shut_down = agg.shut_down || s.shut_down;
  }
  // Kernels proceed at the pace of their slowest memory channel.
  agg.reads = demand.reads * agg.served_fraction;
  agg.writes = demand.writes * agg.served_fraction;
  agg.pim_ops = demand.pim_ops * agg.served_fraction;
  return agg;
}

bool SystemRun::advance() {
  if (awaiting_step_) {
    awaiting_step_ = false;
    post_step();
  }
  for (;;) {
    if (in_pass_) {
      if (pass_epoch()) {
        awaiting_step_ = true;
        return true;
      }
      end_pass();
      continue;
    }
    switch (phase_) {
      case Phase::kWarmupPass:
        // Warm-up: the application executes the workload's kernels
        // back-to-back, so the measured pass should start from the
        // quasi-steady thermal and controller state of sustained execution.
        // The stack's thermal time constant (~1.5 ms) is short relative to a
        // pass, so transient warm-up passes converge within a few
        // repetitions.  Skipped when warm_start is off (transient
        // experiments).
        begin_pass(cfg_.warmup_epoch, /*measure=*/false);
        phase_ = Phase::kWarmupJump;
        continue;
      case Phase::kWarmupJump: {
        warmup_jump();
        const bool thermally_stable =
            std::abs(pass_out_.peak - prev_peak_) < cfg_.warmup_tolerance_c;
        const bool controller_quiet = controller_->adjustments() == prev_adjustments_;
        if (rep_ > 0 && thermally_stable && controller_quiet) {
          phase_ = Phase::kMeasuredBegin;
          continue;
        }
        prev_peak_ = pass_out_.peak;
        prev_adjustments_ = controller_->adjustments();
        ++rep_;
        phase_ = rep_ < cfg_.max_warmup_reps ? Phase::kWarmupPass : Phase::kMeasuredBegin;
        continue;
      }
      case Phase::kMeasuredBegin:
        result_.start_dram_temp = hottest();
        engine_->stats().reset();  // warm-up traffic is not part of the measurement
        measured_start_ = now_;
        begin_pass(cfg_.epoch, /*measure=*/true);
        phase_ = Phase::kFinalize;
        continue;
      case Phase::kFinalize:
        finalize();
        phase_ = Phase::kDone;
        return false;
      case Phase::kDone:
        return false;
    }
  }
}

void SystemRun::begin_pass(Time epoch, bool measure) {
  engine_->restart();
  pass_ = PassState{};
  pass_.epoch = epoch;
  pass_.measure = measure;
  pass_.start = now_;
  tr_.begin(now_, obs::names::kCatSim, measure ? "measured_pass" : "warmup_pass",
            {{"epoch_us", epoch.as_us()}});
  pass_.peak = hottest();
  for (Cube& c : cubes_) c.pass_peak = c.therm.peak_dram();
  in_pass_ = true;
}

bool SystemRun::pass_epoch() {
  while (!engine_->finished()) {
    COOLPIM_REQUIRE(now_ - pass_.start < cfg_.max_time, "run exceeded max_time");
    Time left = pass_.epoch;
    double pim_ops = 0.0, reads = 0.0, writes = 0.0;
    // Inner loop: launch overheads can split an epoch.
    int spins = 0;
    while (left > Time::zero() && !engine_->finished()) {
      COOLPIM_ASSERT_MSG(++spins < 10000, "epoch failed to make progress");
      const auto demand = engine_->plan(now_, left);
      pass_.dem_reads += demand.reads;
      pass_.dem_writes += demand.writes;
      pass_.dem_pims += demand.pim_ops;
      const auto service = serve(demand, left);
      if (service.shut_down) {
        // Conservative device behaviour: stop, cool, lose data (paper
        // III-A.2); account the recovery and restart the pass cold.  Any
        // cube shutting down stalls the GPU, so every cube restarts cold.
        result_.shut_down = true;
        tr_.instant(now_, obs::names::kCatSys, "thermal_shutdown",
                    {{"recovery_ms", cfg_.shutdown_recovery.as_ms()}});
        if (ctr_ != nullptr) ctr_->counter(obs::names::kSysShutdowns).add();
        now_ += cfg_.shutdown_recovery;
        for (Cube& c : cubes_) c.therm.reset();
        engine_->restart();
        left = pass_.epoch;
        continue;
      }
      const Time used = engine_->commit(now_, left, service);
      committed_.add(service);
      pim_ops += service.pim_ops;
      reads += service.reads;
      writes += service.writes;
      now_ += used;
      left -= used;
    }

    const Time step = pass_.epoch - left;
    if (step <= Time::zero()) continue;
    const double secs = step.as_sec();

    // Power from each cube's share of the epoch's committed traffic, through
    // its backend's thermal-power hook (the default maps the mix via its
    // LinkModel, matching the pre-contract arithmetic exactly), at the
    // cube's own derate level.
    hmc::TransactionMix mix{reads / secs, writes / secs, pim_ops / secs, 0.0};
    power::OperatingPoint op;  // summed over cubes
    int level = 0;
    for (Cube& c : cubes_) {
      const hmc::TransactionMix cube_mix{mix.reads_per_sec * c.regular_share,
                                         mix.writes_per_sec * c.regular_share,
                                         mix.pim_per_sec * c.pim_share, 0.0};
      const hmc::ThermalPower tp = c.backend->thermal_power(cube_mix);
      power::OperatingPoint cube_op;
      cube_op.link_raw = tp.link_raw;
      cube_op.dram_internal = tp.dram_internal;
      cube_op.pim_ops_per_sec = cube_mix.pim_per_sec;
      const int cube_level =
          ideal_ ? 0 : std::min(2, static_cast<int>(cfg_.policy.phase(c.therm.peak_dram())));
      c.pb = power::compute_power(cfg_.energy, cube_op, cube_level);
      c.therm.apply_power(c.pb);
      op.link_raw = op.link_raw + cube_op.link_raw;
      op.dram_internal = op.dram_internal + cube_op.dram_internal;
      op.pim_ops_per_sec += cube_op.pim_ops_per_sec;
      level = std::max(level, cube_level);
    }
    if (tr_.enabled()) {
      // The epoch ran [now - step, now): the HMC serve span covers it, and
      // the thermal model's internal trace clock is re-anchored so its
      // step() span lands on the same interval.
      tr_.complete(now_ - step, step, obs::names::kCatHmc, "serve",
                   {{"reads", reads},
                    {"writes", writes},
                    {"pim_ops", pim_ops},
                    {"derate_level", level}});
    }
    for (Cube& c : cubes_) c.therm.sync_trace_clock(now_ - step);
    // Yield: the caller advances the thermal model by `step`, then resumes
    // with post_step().
    ep_ = EpochState{};
    ep_.step = step;
    ep_.secs = secs;
    ep_.reads = reads;
    ep_.writes = writes;
    ep_.pim_ops = pim_ops;
    ep_.mix = mix;
    ep_.op = op;
    return true;
  }
  return false;
}

void SystemRun::post_step() {
  const hmc::LinkModel& link = cubes_[0].backend->link();
  const Time step = ep_.step;
  const double secs = ep_.secs;
  // Served-op counters come from the committed tally: every drain emits
  // round(exact total) - emitted-so-far, so totals are a single rounding of
  // the exact sums and backend-comparable by construction.
  const hmc::OpDelta op_delta = committed_.drain();
  if (ctr_ != nullptr) {
    ctr_->counter(obs::names::kSysEpochs).add();
    ctr_->counter(obs::names::kHmcServedReads).add(op_delta.reads);
    ctr_->counter(obs::names::kHmcServedWrites).add(op_delta.writes);
    ctr_->counter(obs::names::kHmcServedPimOps).add(op_delta.pim_ops);
  }
  if (pass_.measure) {
    for (Cube& c : cubes_) {
      result_.cube_energy_j += c.pb.total().value() * secs;
      result_.fan_energy_j += power::cooling(cfg_.cooling).fan_power_watts * secs;
    }
  }
  pass_.tot_raw += ep_.op.link_raw.as_bytes_per_sec() * secs;
  pass_.tot_internal += ep_.op.dram_internal.as_bytes_per_sec() * secs;
  pass_.tot_pim += ep_.pim_ops;

  for (Cube& c : cubes_) c.pass_peak = std::max(c.pass_peak, c.therm.peak_dram());
  const Celsius dram = hottest();
  pass_.peak = std::max(pass_.peak, dram);
  sensor_->record(now_, dram);

  // Thermal warnings ride on response packets; the host sees the sensed
  // (delayed) temperature.  With the fault layer active the reading is
  // conditioned (noise / quantization / stuck-at), raised warnings roll
  // their in-flight fate, and the watchdog closes the fail-safe loop.
  if (faulty_) {
    faults_->begin_epoch(now_);
    const Celsius seen = faults_->condition_reading(now_, sensor_->sensed(now_));
    // Per-epoch policy hook: predictive policies act on the (conditioned)
    // sensed reading before any warning fires; a no-op for reactive ones.
    controller_->on_epoch(control::Reading{seen}, now_);
    if (cfg_.policy.warning(seen)) faults_->offer_warning(now_);
    faults_->maybe_spurious(now_);
    for (const auto& d : faults_->collect_due(now_)) {
      if (ctr_ != nullptr) ctr_->counter(obs::names::kSysThermalWarningsDelivered).add();
      controller_->on_thermal_warning(d.at, d.raised_at);
      if (wdog_) wdog_->on_delivery(d.at);
      if (pass_.measure) ++result_.thermal_warnings;
    }
    if (wdog_ && wdog_->tick(now_, seen)) controller_->on_watchdog_engage(now_);
  } else if (!ideal_) {
    const Celsius seen = sensor_->sensed(now_);
    controller_->on_epoch(control::Reading{seen}, now_);
    if (cfg_.policy.warning(seen)) {
      if (ctr_ != nullptr) ctr_->counter(obs::names::kSysThermalWarningsDelivered).add();
      controller_->on_thermal_warning(now_);
      if (pass_.measure) ++result_.thermal_warnings;
    }
  }

  if (pass_.measure) {
    result_.link_data_bytes += link.data_bandwidth(ep_.mix).as_bytes_per_sec() * secs;
    result_.link_raw_bytes += ep_.op.link_raw.as_bytes_per_sec() * secs;
    result_.dram_internal_bytes += ep_.op.dram_internal.as_bytes_per_sec() * secs;
    result_.pim_ops += op_delta.pim_ops;
    if (!ideal_ && cfg_.policy.phase(dram) != hmc::ThermalPhase::kNormal) {
      result_.time_above_normal += step;
    }
    result_.pim_rate.record(now_, ep_.mix.pim_per_sec * 1e-9);
    result_.dram_temp.record(now_, dram.value());
    result_.link_bw.record(now_, link.data_bandwidth(ep_.mix).as_gbps());
    tr_.counter(now_, obs::names::kCatSys, "pim_rate_gops", ep_.mix.pim_per_sec * 1e-9);
    tr_.counter(now_, obs::names::kCatSys, "link_data_gbps",
                link.data_bandwidth(ep_.mix).as_gbps());
    if (ctr_ != nullptr) {
      ctr_->gauge(obs::names::kSysPimRateGops).set(ep_.mix.pim_per_sec * 1e-9);
      ctr_->gauge(obs::names::kSysLinkDataGbps).set(link.data_bandwidth(ep_.mix).as_gbps());
      ctr_->mark(now_);
    }
  }
}

void SystemRun::end_pass() {
  if (pass_.measure) result_.exec_time = now_ - pass_.start;
  pass_out_ = PassOutcome{};
  pass_out_.peak = pass_.peak;
  const double pass_secs = (now_ - pass_.start).as_sec();
  if (pass_secs > 0.0) {
    pass_out_.avg.link_raw = Bandwidth::bytes_per_sec(pass_.tot_raw / pass_secs);
    pass_out_.avg.dram_internal = Bandwidth::bytes_per_sec(pass_.tot_internal / pass_secs);
    pass_out_.avg.pim_ops_per_sec = pass_.tot_pim / pass_secs;
    pass_out_.demand_per_sec.reads = pass_.dem_reads / pass_secs;
    pass_out_.demand_per_sec.writes = pass_.dem_writes / pass_secs;
    pass_out_.demand_per_sec.pim_ops = pass_.dem_pims / pass_secs;
  }
  tr_.end(now_);
  in_pass_ = false;
}

void SystemRun::warmup_jump() {
  // Fast-forward to the sustained equilibrium: the heat sink's own time
  // constant is tens of seconds, far beyond what a pass can move, so solve
  // for the steady state of the pass's average served traffic at the
  // corresponding derate level.  The jump uses this pass's average demand
  // as is: nothing is smoothed across repetitions, so there is no damping
  // of a hot/cool ping-pong near the derating boundary beyond the bounded
  // repetition count.
  //
  // Sustained-equilibrium jump: at each candidate derate level, serve the
  // pass's offered demand at that level and solve for the steady state of
  // the *served* traffic under that level's hot-energy penalty.  Accept the
  // coolest self-consistent level (a device whose full-speed steady state is
  // below 85 C never enters the extended range); if no level is consistent
  // the equilibrium straddles the 85 C boundary, which the extended-level
  // solution represents best.  Each cube jumps on its own share.
  for (Cube& c : cubes_) {
    const hmc::EpochDemand share =
        share_of(pass_out_.demand_per_sec, c.regular_share, c.pim_share);
    auto solve_at = [&](int level) {
      const Celsius probe{level == 0 ? 80.0 : (level == 1 ? 90.0 : 100.0)};
      // probe(): what-if serve with no backend state advanced and nothing
      // committed -- the jump is a fast-forward, not served traffic.
      const auto svc = c.backend->probe(share, Time::sec(1.0), probe);
      power::OperatingPoint op;
      op.link_raw = svc.link_raw;
      op.dram_internal = svc.dram_internal;
      op.pim_ops_per_sec = svc.pim_ops_per_sec;
      c.therm.apply_power(power::compute_power(cfg_.energy, op, level));
      c.therm.solve_steady();
      return std::min(2, static_cast<int>(cfg_.policy.phase(c.therm.peak_dram())));
    };
    bool consistent = false;
    for (int level = 0; level <= 2 && !consistent; ++level) {
      consistent = solve_at(level) == level;
    }
    if (!consistent) (void)solve_at(1);
  }
  // The jump is a fast-forward, not a physical excursion: re-anchor the
  // thermal sensor so stale pre-jump samples cannot trigger warnings.
  sensor_.emplace(cfg_.thermal_delay, hottest());
  sensor_->record(now_, hottest());
}

void SystemRun::finalize() {
  const Celsius ambient = cubes_[0].therm.config().ambient;
  result_.peak_dram_temp = ideal_ ? ambient : pass_out_.peak;
  // Every committed PIM op is split at the configured share, so a cube's
  // share of the measured pass's PIM ops is its pim_share.
  for (const Cube& c : cubes_) {
    result_.cubes.push_back(CubeResult{ideal_ ? ambient : c.pass_peak, c.therm.peak_dram(),
                                       result_.pim_ops > 0 ? c.pim_share : 0.0});
  }
  result_.host_atomics = engine_->stats().counter_value("host_atomics");
  if (tr_.enabled()) {
    // One span per controller over the measured pass so the throttle policy
    // in force is readable directly off the "core" track.
    tr_.complete(measured_start_, now_ - measured_start_, obs::names::kCatCore,
                 controller_->name(),
                 {{"adjustments", controller_->adjustments()},
                  {"warnings_delivered", result_.thermal_warnings}});
  }
  if (faulty_) {
    result_.faults.active = true;
    const auto& fs = faults_->stats();
    result_.faults.warnings_offered = fs.warnings_offered;
    result_.faults.warnings_delivered = fs.warnings_delivered;
    result_.faults.warnings_dropped = fs.warnings_dropped;
    result_.faults.warnings_corrupted = fs.warnings_corrupted;
    result_.faults.retries = fs.retries;
    result_.faults.retry_giveups = fs.retry_giveups;
    result_.faults.spurious_warnings = fs.spurious_warnings;
    result_.faults.link_outages = fs.link_outages;
    if (wdog_) {
      result_.faults.watchdog_engagements = wdog_->engagements();
      result_.faults.watchdog_disengagements = wdog_->disengagements();
    }
  }
}

RunResult SystemRun::take_result() {
  COOLPIM_REQUIRE(phase_ == Phase::kDone, "take_result before the run completed");
  return std::move(result_);
}

}  // namespace coolpim::sys
