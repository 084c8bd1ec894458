// Thermal fast-path contract tests (docs/PERFORMANCE.md):
//  * the branch-free flat-stencil sweep (StackModel::step) is bit-identical
//    to the retained guarded reference sweep on randomized stacks,
//  * the transient kernel is stable at stable_step() under extreme cooling,
//  * warm-started steady solves land on the cold solution within the solver
//    tolerance at a fraction of the iterations,
//  * the ADI kernel matches a tight-dt explicit reference within the
//    documented tolerance on the 16-high HBM geometry where dt is >= 10x the
//    explicit stable step, and settles onto the steady solve,
//  * a steady solve conserves energy: injected power equals the sink and
//    board outflows within the bound the solver tolerance implies,
//  * the hot path performs no heap allocations after construction -- for
//    both transient kernels, the ADI refactorization included -- checked
//    with this binary's counting global operator new (tests are separate
//    executables, so the override is visible to every allocation here).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal/stack_model.hpp"

// GCC pairs the inlined replacement operator new with std::free and reports a
// false mismatch; the replacement new below really does malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_live_allocs{0};

}  // namespace

// Counting allocator: every operator-new form funnels through here.  The
// counter is read around the calls under test; gtest's own allocations
// happen outside those windows.
void* operator new(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coolpim::thermal {
namespace {

std::uint64_t allocations() { return g_live_allocs.load(std::memory_order_relaxed); }

/// Randomized but physically valid stack: 1-5 layers, odd grid shapes,
/// varying materials and sink parameters.
StackSpec random_spec(Rng& rng) {
  StackSpec spec;
  spec.floorplan.vaults_x = 1;
  spec.floorplan.vaults_y = 1;
  spec.floorplan.grid.nx = static_cast<std::size_t>(rng.next_in(1, 24));
  spec.floorplan.grid.ny = static_cast<std::size_t>(rng.next_in(1, 12));
  spec.floorplan.die_width_m = 2e-3 + 10e-3 * rng.next_double();
  spec.floorplan.die_height_m = 2e-3 + 10e-3 * rng.next_double();
  const auto n_layers = static_cast<std::size_t>(rng.next_in(1, 5));
  for (std::size_t l = 0; l < n_layers; ++l) {
    LayerSpec layer;
    layer.name = "L" + std::to_string(l);
    layer.thickness_m = 20e-6 + 80e-6 * rng.next_double();
    layer.conductivity = 30.0 + 200.0 * rng.next_double();
    layer.volumetric_heat_capacity = 1e6 + 2e6 * rng.next_double();
    layer.interface_r_above = 1e-6 + 2e-5 * rng.next_double();
    spec.layers.push_back(layer);
  }
  spec.tim_r = 2e-6 + 2e-5 * rng.next_double();
  spec.sink_r = ThermalResistance{0.1 + 2.0 * rng.next_double()};
  spec.sink_heat_capacity = 0.005 + 10.0 * rng.next_double();
  spec.board_r = 5.0 + 40.0 * rng.next_double();
  spec.co_heater_watts = rng.next_bool(0.3) ? 5.0 * rng.next_double() : 0.0;
  return spec;
}

void apply_random_power(StackModel& model, Rng& rng) {
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    PowerMap pm{model.spec().floorplan.grid};
    const double layer_watts = 8.0 * rng.next_double();
    for (std::size_t c = 0; c < model.cells_per_layer(); ++c) {
      pm.add(c, layer_watts * rng.next_double() / static_cast<double>(model.cells_per_layer()));
    }
    model.set_layer_power(l, pm);
  }
}

void expect_fields_bit_identical(const StackModel& a, const StackModel& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (std::size_t c = 0; c < a.cells_per_layer(); ++c) {
      // EXPECT_EQ on doubles: exact bit-for-bit agreement, not a tolerance.
      ASSERT_EQ(a.cell_temp(l, c).value(), b.cell_temp(l, c).value())
          << "layer " << l << " cell " << c;
    }
  }
  ASSERT_EQ(a.sink_temp().value(), b.sink_temp().value());
}

TEST(ThermalKernel, FastSweepBitIdenticalToReferenceOnRandomStacks) {
  Rng rng{0x7ea4'd00d'1234'5678ULL};
  for (int trial = 0; trial < 12; ++trial) {
    const StackSpec spec = random_spec(rng);
    StackModel fast{spec};
    StackModel ref{spec};
    Rng power_rng{rng.next_u64()};
    Rng power_rng_copy = power_rng;
    apply_random_power(fast, power_rng);
    apply_random_power(ref, power_rng_copy);

    // Mix of sub-stable and multi-substep strides, interleaved with power
    // changes mid-run as the system driver does.
    const Time strides[] = {fast.stable_step(), Time::us(10.0), Time::us(3.3), Time::us(50.0)};
    for (const Time dt : strides) {
      for (int s = 0; s < 3; ++s) {
        fast.step(dt);
        ref.step_reference(dt);
      }
      expect_fields_bit_identical(fast, ref);
    }
  }
}

TEST(ThermalKernel, StableAtStableStepUnderExtremeCooling) {
  // Harshest corner: strongest sink (high-end active), tiny sink mass, full
  // power.  Advancing at exactly stable_step() must stay bounded: explicit
  // Euler diverges visibly within a few hundred substeps if the bound is
  // wrong.
  Rng rng{0xc001'cafe};
  for (int trial = 0; trial < 6; ++trial) {
    StackSpec spec = random_spec(rng);
    spec.sink_r = ThermalResistance{0.05};
    spec.sink_heat_capacity = 0.002;
    StackModel model{spec};
    apply_random_power(model, rng);

    const double ambient_c = spec.ambient.value();
    for (int s = 0; s < 500; ++s) {
      model.step(model.stable_step());
      const double peak = model.peak_over_layers(0, model.layer_count() - 1).value();
      ASSERT_TRUE(std::isfinite(peak)) << "diverged at substep " << s;
      ASSERT_LT(peak, 500.0) << "diverged at substep " << s;
      ASSERT_GT(peak, ambient_c - 1.0);
    }
  }
}

TransientOptions adi_options() {
  TransientOptions opt;
  opt.kernel = TransientKernel::kAdi;
  return opt;
}

/// 16-high HBM-class stack with the interval-simulation heat-capacity
/// scaling (as HmcThermalConfig and the fleet grid do): settles fast enough
/// to test while preserving the geometry and stencil.
StackSpec tall_spec(std::size_t nx, std::size_t ny, double capacity_scale) {
  StackSpec spec = hbm_stack_spec(16, nx, ny);
  for (auto& l : spec.layers) l.volumetric_heat_capacity *= capacity_scale;
  spec.sink_heat_capacity *= capacity_scale;
  return spec;
}

TEST(ThermalKernel, AdiMatchesTightDtExplicitOnTallStack) {
  // The ADI step dt is >= 10x the explicit stable dt (acceptance
  // criterion); the tight-dt explicit reference advances the same dt through
  // the explicit fast path (bit-identical to step_reference).
  const StackSpec spec = tall_spec(12, 10, 0.05);
  StackModel adi{spec, adi_options()};
  StackModel explicit_ref{spec};

  const Time dt = Time::sec(adi.stable_step().as_sec() * 32.0);
  ASSERT_GE(dt.as_sec() / adi.stable_step().as_sec(), 10.0);
  ASSERT_EQ(adi.substeps_for(dt), 1u);  // one ADI pass per step

  // Hot logic die + warm top DRAM.
  for (StackModel* m : {&adi, &explicit_ref}) {
    m->set_layer_power_uniform(0, 10.0);
    m->set_layer_power_uniform(16, 2.0);
  }

  double max_err = 0.0;
  double max_rise = 0.0;
  for (int s = 0; s < 120; ++s) {
    adi.step(dt);
    explicit_ref.step(dt);
    for (std::size_t l = 0; l < adi.layer_count(); ++l) {
      const double want = explicit_ref.layer_peak(l).value();
      max_rise = std::max(max_rise, want - spec.ambient.value());
      max_err = std::max(max_err, std::abs(adi.layer_peak(l).value() - want));
    }
  }
  ASSERT_GT(max_rise, 5.0);  // the transient actually heated the stack
  RecordProperty("max_adi_error_k", std::to_string(max_err));
  // Documented tolerance (DESIGN.md section 13): ADI peak temperatures stay
  // within 2% of the explicit temperature rise at dt = 32x stable.
  EXPECT_LE(max_err, 0.02 * max_rise)
      << "max ADI error " << max_err << " K over rise " << max_rise << " K";
}

TEST(ThermalKernel, AdiSettlesOntoSteadyOnFleetRackGeometry) {
  // The fleet grid's 16-die rack stack (fleet::GridThermalConfig defaults:
  // 8x8 grid, capacity scale 0.045, 1 ms epochs) driven long enough to
  // settle; every layer's peak must land on the steady solve.
  StackSpec spec = tall_spec(8, 8, 0.045);
  spec.ambient = Celsius{35.0};
  StackModel adi{spec, adi_options()};
  StackModel steady{spec};
  for (StackModel* m : {&adi, &steady}) {
    m->set_layer_power_uniform(0, 15.0);
    m->set_layer_power_uniform(16, 1.0);
  }
  steady.solve_steady();
  for (int s = 0; s < 2000; ++s) adi.step(Time::ms(1.0));

  const double rise = steady.peak_over_layers(0, 16).value() - spec.ambient.value();
  ASSERT_GT(rise, 5.0);
  double max_err = 0.0;
  for (std::size_t l = 0; l < adi.layer_count(); ++l) {
    max_err = std::max(max_err, std::abs(adi.layer_peak(l).value() - steady.layer_peak(l).value()));
  }
  max_err = std::max(max_err, std::abs(adi.sink_temp().value() - steady.sink_temp().value()));
  RecordProperty("max_settle_error_k", std::to_string(max_err));
  EXPECT_LE(max_err, 0.02 * rise) << "settled ADI off steady by " << max_err << " K";
}

/// Heat leaving the stack at its current field: sink -> ambient plus
/// board -> ambient.
double outflow_watts(const StackModel& m) {
  const StackNetwork& net = m.network();
  const double amb_k = m.spec().ambient.as_kelvin();
  double out = net.g_sink_ambient * (m.sink_temp().as_kelvin() - amb_k);
  for (std::size_t c = 0; c < m.cells_per_layer(); ++c) {
    out += net.g_board[c] * (m.cell_temp(0, c).as_kelvin() - amb_k);
  }
  return out;
}

/// At a steady fixed point the injected power plus the co-heater equals the
/// outflow.  Bound from the solver's stopping rule: the last SOR sweep moved
/// every node by less than `tol`, so each node's residual is below
/// 2 * g_diag * tol (its own under-relaxation gap plus its neighbours'
/// moves), and the internal flows cancel in the sum over nodes.
void expect_steady_energy_balance(StackModel& m, double injected_watts) {
  constexpr double kTol = 1e-4;
  m.solve_steady(kTol);
  const StackNetwork& net = m.network();
  double g_total = net.sink_g_total;
  for (const double g : net.g_diag) g_total += g;
  const double bound = 2.0 * kTol * g_total;
  const double in = injected_watts + m.spec().co_heater_watts;
  const double imbalance = std::abs(in - outflow_watts(m));
  ::testing::Test::RecordProperty("energy_imbalance_w", std::to_string(imbalance));
  ::testing::Test::RecordProperty("energy_bound_w", std::to_string(bound));
  EXPECT_LE(imbalance, bound) << "in " << in << " W";
  EXPECT_LT(bound, 0.05 * in) << "bound too loose to mean anything";
}

TEST(ThermalKernel, SteadySolveConservesEnergyOnHmc20Stack) {
  const HmcThermalModel hmc{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  StackModel m{hmc.stack().spec()};
  Rng rng{0xe4e7'9001ULL};
  double watts = 0.0;
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    PowerMap pm{m.spec().floorplan.grid};
    for (std::size_t c = 0; c < m.cells_per_layer(); ++c) {
      const double w = (l == 0 ? 12.0 : 1.5) * rng.next_double() /
                       static_cast<double>(m.cells_per_layer());
      pm.add(c, w);
      watts += w;
    }
    m.set_layer_power(l, pm);
  }
  expect_steady_energy_balance(m, watts);
}

TEST(ThermalKernel, SteadySolveConservesEnergyOnHbm16Stack) {
  StackSpec spec = hbm_stack_spec(16, 12, 10);
  spec.co_heater_watts = 3.0;
  StackModel m{spec};
  m.set_layer_power_uniform(0, 10.0);
  for (std::size_t l = 1; l < m.layer_count(); ++l) m.set_layer_power_uniform(l, 0.25);
  expect_steady_energy_balance(m, 10.0 + 0.25 * 16.0);
}

TEST(ThermalKernel, WarmStartMatchesColdWithinToleranceAndCutsIterations) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;

  auto read_power = [&](double bw) {
    hmc::TransactionMix mix;
    mix.reads_per_sec = bw * 1e9 / 64.0;
    power::OperatingPoint op;
    op.link_raw = link.raw_link_bandwidth(mix);
    op.dram_internal = link.internal_dram_bandwidth(mix);
    return power::compute_power(ep, op);
  };

  HmcThermalModel cold{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  HmcThermalModel warm{hmc20_thermal_config(power::CoolingType::kCommodityServer)};

  std::size_t cold_iters = 0;
  std::size_t warm_iters = 0;
  for (double bw = 0.0; bw <= 320.0 + 1e-9; bw += 40.0) {
    cold.apply_power(read_power(bw));
    warm.apply_power(read_power(bw));
    cold_iters += cold.solve_steady(SteadyStart::kCold);
    warm_iters += warm.solve_steady(SteadyStart::kWarmScaled);
    // Same fixed point within (a small multiple of) the solver tolerance.
    EXPECT_NEAR(warm.peak_dram().value(), cold.peak_dram().value(), 0.05);
    EXPECT_NEAR(warm.peak_logic().value(), cold.peak_logic().value(), 0.05);
    EXPECT_NEAR(warm.mean_dram().value(), cold.mean_dram().value(), 0.05);
  }
  // The tentpole claim: warm starts at least halve the sweep's iteration
  // count (measured: ~7x on this sweep, see BENCH_thermal.json).
  EXPECT_LE(warm_iters * 2, cold_iters);
}

TEST(ThermalKernel, StepIsAllocationFreeAndReferenceIsNot) {
  HmcThermalModel model{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  const hmc::LinkModel link{hmc::hmc20_config()};
  hmc::TransactionMix mix;
  mix.reads_per_sec = 320.0 * 1e9 / 64.0;
  power::OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  model.apply_power(power::compute_power(power::EnergyParams{}, op));
  model.solve_steady();

  StackModel& stack = model.stack();
  // Touch the lazy stats cache once so its buffers exist.
  (void)model.peak_dram();

  const std::uint64_t before = allocations();
  for (int i = 0; i < 50; ++i) {
    stack.step(Time::us(10.0));
    (void)model.peak_dram();  // stats recompute must not allocate either
  }
  EXPECT_EQ(allocations(), before) << "step() allocated on the hot path";

  const std::uint64_t ref_before = allocations();
  stack.step_reference(Time::us(10.0));
  EXPECT_GT(allocations(), ref_before) << "reference kernel should use per-call scratch";
}

TEST(ThermalKernel, AdiStepAllocationFreeIncludingRefactor) {
  StackModel adi{hbm_stack_spec(16, 10, 8), adi_options()};
  adi.set_layer_power_uniform(0, 8.0);
  adi.step(Time::ms(1.0));  // warm-up builds the first factorization
  (void)adi.peak_over_layers(1, 16);

  const std::uint64_t before = allocations();
  for (int s = 0; s < 5; ++s) adi.step(Time::ms(1.0));
  adi.step(Time::ms(2.5));  // different substep length: in-place refactor
  (void)adi.peak_over_layers(1, 16);
  EXPECT_EQ(allocations(), before) << "ADI step (incl. refactor) allocated";
}

TEST(ThermalKernel, SteadyResolveIsAllocationFreeAfterHistoryWarmup) {
  HmcThermalModel model{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  auto apply_bw = [&](double bw) {
    hmc::TransactionMix mix;
    mix.reads_per_sec = bw * 1e9 / 64.0;
    power::OperatingPoint op;
    op.link_raw = link.raw_link_bandwidth(mix);
    op.dram_internal = link.internal_dram_bandwidth(mix);
    model.apply_power(power::compute_power(ep, op));
  };

  // Two solves populate both history slots; later solves recycle them.
  apply_bw(80.0);
  model.solve_steady(SteadyStart::kWarmScaled);
  apply_bw(160.0);
  model.solve_steady(SteadyStart::kWarmScaled);

  // apply_power legitimately builds fresh PowerMaps; the no-allocation
  // contract covers the solver itself.
  apply_bw(240.0);
  const std::uint64_t before = allocations();
  model.solve_steady(SteadyStart::kWarmScaled);
  EXPECT_EQ(allocations(), before) << "warm re-solve allocated";
}

}  // namespace
}  // namespace coolpim::thermal
