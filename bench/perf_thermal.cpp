// Perf harness for the thermal hot path (docs/PERFORMANCE.md).
//
// Three measurements, emitted as BENCH_thermal.json:
//
//  - transient: ns per cell-substep of the branch-free flat-stencil sweep
//    (StackModel::step) against the retained guarded reference sweep
//    (step_reference), on the HMC 2.0 commodity-sink stack at full read
//    bandwidth -- the Fig. 3 / Fig. 13 operating point.  Both kernels are
//    bit-identical by contract; the harness cross-checks the final fields.
//
//  - steady: solver iterations and wall time for the Fig. 3/4 bandwidth
//    sweep (Table 2's four cooling solutions x bandwidth 0..320 GB/s),
//    re-solved cold (from ambient, SteadyStart::kCold) versus warm-started
//    (SteadyStart::kWarmScaled, extrapolating from the solve history).
//
//  - tall_stack: StackModel's ADI kernel against its explicit kernel on a
//    16-high HBM stack, timed and checked against the DESIGN.md section 13
//    tolerance.
//
// Every speedup is an in-run ratio: the kernels are timed in interleaved
// rounds and the ratio is the median over rounds, so it reflects the code
// rather than the host's speed at the moment.
//
// Flags: --out FILE (default BENCH_thermal.json), --quick (CI smoke: short
// timed windows, same schema).  No thresholds are enforced here; the JSON is
// schema-checked by tools/check_bench.py, whose --strict mode compares the
// ratios with bench/baselines/BENCH_thermal.json.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/main.hpp"
#include "hmc/config.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal/stack_model.hpp"

#include "perf_support.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

/// The operating point both measurements run at: full regular-read bandwidth
/// into an HMC 2.0 cube under the commodity-server sink.
thermal::HmcThermalModel make_model(power::CoolingType cooling, double bw_gbps) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  thermal::HmcThermalModel model{thermal::hmc20_thermal_config(cooling)};
  model.apply_power(
      power::compute_power(power::EnergyParams{}, bench::read_traffic(link, bw_gbps)));
  return model;
}

struct TransientResult {
  double fast_ns_per_cell_substep;
  double reference_ns_per_cell_substep;
  double speedup;
  std::uint64_t nodes;
  std::uint64_t substeps_per_step;
  std::uint64_t fast_steps;
  std::uint64_t reference_steps;
  bool bit_identical;
};

/// Time `step` calls over one wall-clock window of `window_sec` and return
/// ns per cell-substep; *steps_out receives the steps taken so the caller
/// can re-synchronize two models.
template <typename StepFn>
double time_window(StepFn step, double window_sec, std::uint64_t cells_per_step,
                   std::uint64_t* steps_out) {
  // One untimed call warms caches and (for the reference kernel) the heap.
  step();
  std::uint64_t steps = 0;
  bench::StopWatch clock;
  do {
    for (int i = 0; i < 8; ++i) step();
    steps += 8;
  } while (clock.elapsed_sec() < window_sec);
  *steps_out = steps;
  return clock.elapsed_ns() / (static_cast<double>(steps) * static_cast<double>(cells_per_step));
}

struct SteadyResult {
  std::uint64_t points;
  std::uint64_t cold_iterations;
  std::uint64_t warm_iterations;
  double iteration_reduction;
  double cold_ms;
  double warm_ms;
};

/// One full Fig. 3/4-style sweep: Table 2's four cooling solutions, each
/// swept over bandwidth 0..320 GB/s in 40 GB/s steps with a persistent model
/// per cooling type.  Returns total solver iterations; adds wall ms to *ms.
std::uint64_t steady_sweep(thermal::SteadyStart start, std::uint64_t* points, double* ms) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  std::uint64_t iters = 0;
  std::uint64_t n = 0;
  bench::StopWatch clock;
  for (const auto cooling :
       {power::CoolingType::kPassive, power::CoolingType::kLowEndActive,
        power::CoolingType::kCommodityServer, power::CoolingType::kHighEndActive}) {
    thermal::HmcThermalModel model{thermal::hmc20_thermal_config(cooling)};
    for (double bw = 0.0; bw <= 320.0 + 1e-9; bw += 40.0) {
      model.apply_power(power::compute_power(ep, bench::read_traffic(link, bw)));
      iters += model.solve_steady(start);
      ++n;
    }
  }
  *ms += clock.elapsed_ms();
  *points = n;
  return iters;
}

SteadyResult measure_steady(bool quick) {
  const int reps = quick ? 1 : 3;
  SteadyResult r{};
  double cold_ms = 0.0, warm_ms = 0.0;
  for (int i = 0; i < reps; ++i) {
    r.cold_iterations = steady_sweep(thermal::SteadyStart::kCold, &r.points, &cold_ms);
    r.warm_iterations = steady_sweep(thermal::SteadyStart::kWarmScaled, &r.points, &warm_ms);
  }
  r.cold_ms = cold_ms / reps;
  r.warm_ms = warm_ms / reps;
  r.iteration_reduction =
      static_cast<double>(r.cold_iterations) / static_cast<double>(r.warm_iterations);
  return r;
}

// ---- Kernel timing: the explicit fast sweep and the retained reference
// sweep on the same HMC 2.0 stack, timed in interleaved windows so machine
// noise hits both kernels alike.

/// Median of a[w] / b[w] over timing rounds.  Each round times every kernel
/// in adjacent windows, so a per-round ratio cancels the slow drifts of a
/// shared host (frequency, co-tenants) that best-window ratios pick up from
/// different moments; the median then drops the rounds a burst still split.
double median_ratio(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> ratios(a.size());
  for (std::size_t w = 0; w < a.size(); ++w) ratios[w] = a[w] / b[w];
  const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return *mid;
}

double best(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

TransientResult measure_transient(bool quick) {
  // Many short rounds (an odd count, so the median is one round's ratio).
  const int rounds = quick ? 81 : 121;
  const double window_sec = quick ? 0.005 : 0.01;
  // The system driver advances the thermal model in 10 us epochs; measure
  // the same call it makes.
  const Time dt = Time::us(10.0);

  auto fast = make_model(power::CoolingType::kCommodityServer, 320.0);
  auto ref = make_model(power::CoolingType::kCommodityServer, 320.0);
  fast.solve_steady();
  ref.solve_steady();

  TransientResult r{};
  r.nodes = fast.stack().node_count();
  r.substeps_per_step = fast.stack().substeps_for(dt);
  const std::uint64_t cells = r.nodes * r.substeps_per_step;

  // One window of each kernel per round, in ns per cell-substep.
  thermal::StackModel& fast_stack = fast.stack();
  thermal::StackModel& ref_stack = ref.stack();
  std::vector<double> fast_ns, ref_ns;
  for (int w = 0; w < rounds; ++w) {
    std::uint64_t steps = 0;
    fast_ns.push_back(time_window([&] { fast_stack.step(dt); }, window_sec, cells, &steps));
    r.fast_steps += steps;
    ref_ns.push_back(
        time_window([&] { ref_stack.step_reference(dt); }, window_sec, cells, &steps));
    r.reference_steps += steps;
  }
  r.fast_ns_per_cell_substep = best(fast_ns);
  r.reference_ns_per_cell_substep = best(ref_ns);
  r.speedup = median_ratio(ref_ns, fast_ns);

  // Bit-identity cross-check: advance both models to the same step count and
  // require exactly equal peak temperatures.
  for (std::uint64_t s = r.fast_steps; s < r.reference_steps; ++s) fast_stack.step(dt);
  for (std::uint64_t s = r.reference_steps; s < r.fast_steps; ++s) ref_stack.step_reference(dt);
  r.bit_identical = fast.peak_dram().value() == ref.peak_dram().value() &&
                    fast.peak_logic().value() == ref.peak_logic().value();
  return r;
}

// ---- Tall stack: 16-high HBM geometry where the explicit stable dt
// collapses; the ADI kernel takes 32x-larger substeps and must stay within
// the documented tolerance of the explicit reference advanced over the same
// horizon (DESIGN.md section 13).

struct TallStackResult {
  std::uint64_t layers;
  std::uint64_t nodes;
  double explicit_stable_dt_us;
  std::uint64_t explicit_substeps_per_step;
  std::uint64_t adi_substeps_per_step;
  double explicit_ms;
  double adi_ms;
  double speedup;
  double max_abs_error_k;
  double tolerance_k;
  bool within_tolerance;
};

TallStackResult measure_tall_stack(bool quick) {
  thermal::StackSpec spec = thermal::hbm_stack_spec(16, 12, 10);
  // Interval-simulation heat-capacity scaling (as HmcThermalConfig): settle
  // fast enough to bench while preserving the geometry and stencil.
  for (auto& l : spec.layers) l.volumetric_heat_capacity *= 0.05;
  spec.sink_heat_capacity *= 0.05;

  thermal::TransientOptions adi_opt;
  adi_opt.kernel = thermal::TransientKernel::kAdi;
  thermal::StackModel adi{spec, adi_opt};
  thermal::StackModel explicit_ref{spec};

  const Time dt = Time::sec(adi.stable_step().as_sec() * 32.0);
  for (auto* m : {&adi, &explicit_ref}) {
    m->set_layer_power_uniform(0, 10.0);
    m->set_layer_power_uniform(16, 2.0);
  }

  TallStackResult r{};
  r.layers = adi.layer_count();
  r.nodes = adi.node_count();
  r.explicit_stable_dt_us = explicit_ref.stable_step().as_sec() * 1e6;
  r.explicit_substeps_per_step = explicit_ref.substeps_for(dt);
  r.adi_substeps_per_step = adi.substeps_for(dt);

  // Timing runs on copies in interleaved rounds of 8 steps, and the speedup
  // is the median per-round ratio (the noise treatment of measure_kernels);
  // the accuracy check below advances the originals over a fixed horizon.
  const int rounds = quick ? 21 : 31;
  std::vector<double> adi_ms, explicit_ms;
  {
    thermal::StackModel adi_t = adi;
    thermal::StackModel explicit_t = explicit_ref;
    for (int round = 0; round < rounds; ++round) {
      bench::StopWatch adi_clock;
      for (int s = 0; s < 8; ++s) adi_t.step(dt);
      adi_ms.push_back(adi_clock.elapsed_ms());
      bench::StopWatch ex_clock;
      for (int s = 0; s < 8; ++s) explicit_t.step(dt);
      explicit_ms.push_back(ex_clock.elapsed_ms());
    }
  }
  r.adi_ms = std::accumulate(adi_ms.begin(), adi_ms.end(), 0.0);
  r.explicit_ms = std::accumulate(explicit_ms.begin(), explicit_ms.end(), 0.0);

  const int steps = quick ? 40 : 120;
  for (int s = 0; s < steps; ++s) {
    adi.step(dt);
    explicit_ref.step(dt);
  }
  double max_err = 0.0;
  double max_rise = 0.0;
  for (std::size_t l = 0; l < adi.layer_count(); ++l) {
    const double want = explicit_ref.layer_peak(l).value();
    max_rise = std::max(max_rise, want - spec.ambient.value());
    max_err = std::max(max_err, std::abs(adi.layer_peak(l).value() - want));
  }
  r.speedup = median_ratio(explicit_ms, adi_ms);
  r.max_abs_error_k = max_err;
  // DESIGN.md section 13: 2% of the explicit temperature rise at this dt.
  r.tolerance_k = 0.02 * max_rise;
  r.within_tolerance = max_err <= r.tolerance_k;
  return r;
}

int run_tool(int argc, char** argv) {
  const std::string out = bench::arg_value(argc, argv, "--out", "BENCH_thermal.json");
  const bool quick = bench::arg_flag(argc, argv, "--quick");

  const TransientResult t = measure_transient(quick);
  const SteadyResult s = measure_steady(quick);
  const TallStackResult tall = measure_tall_stack(quick);

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-thermal/4");
  json.kv("quick", quick);
  json.begin_object("transient");
  json.kv("nodes", t.nodes);
  json.kv("substeps_per_step", t.substeps_per_step);
  json.kv("fast_steps_timed", t.fast_steps);
  json.kv("reference_steps_timed", t.reference_steps);
  json.kv("fast_ns_per_cell_substep", t.fast_ns_per_cell_substep);
  json.kv("reference_ns_per_cell_substep", t.reference_ns_per_cell_substep);
  json.kv("speedup", t.speedup);
  json.kv("bit_identical", t.bit_identical);
  json.end();
  json.begin_object("steady");
  json.kv("points_per_sweep", s.points);
  json.kv("cold_iterations", s.cold_iterations);
  json.kv("warm_iterations", s.warm_iterations);
  json.kv("iteration_reduction", s.iteration_reduction);
  json.kv("cold_ms", s.cold_ms);
  json.kv("warm_ms", s.warm_ms);
  json.end();
  json.begin_object("tall_stack");
  json.kv("layers", tall.layers);
  json.kv("nodes", tall.nodes);
  json.kv("explicit_stable_dt_us", tall.explicit_stable_dt_us);
  json.kv("explicit_substeps_per_step", tall.explicit_substeps_per_step);
  json.kv("adi_substeps_per_step", tall.adi_substeps_per_step);
  json.kv("explicit_ms", tall.explicit_ms);
  json.kv("adi_ms", tall.adi_ms);
  json.kv("speedup", tall.speedup);
  json.kv("max_abs_error_k", tall.max_abs_error_k);
  json.kv("tolerance_k", tall.tolerance_k);
  json.kv("within_tolerance", tall.within_tolerance);
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "perf_thermal: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  std::cout << "Transient sweep: " << t.fast_ns_per_cell_substep << " ns/cell-substep fast vs "
            << t.reference_ns_per_cell_substep << " reference (" << t.speedup
            << "x, bit-identical=" << (t.bit_identical ? "yes" : "NO") << ")\n"
            << "Steady sweep:    " << s.warm_iterations << " iters warm-started vs "
            << s.cold_iterations << " cold (" << s.iteration_reduction << "x fewer)\n"
            << "Tall stack:      ADI " << tall.adi_ms << " ms vs explicit " << tall.explicit_ms
            << " ms (" << tall.speedup << "x, max err " << tall.max_abs_error_k << " K, tol "
            << tall.tolerance_k << " K, within=" << (tall.within_tolerance ? "yes" : "NO")
            << ")\n"
            << "Results written to " << out << "\n";
  return (t.bit_identical && tall.within_tolerance) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
