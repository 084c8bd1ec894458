// Batched thermal solver contract tests (DESIGN.md section 13,
// docs/PERFORMANCE.md section 7):
//  * every explicit lane is bit-identical to a scalar StackModel driven with
//    the same spec/ambient/power via step_reference(), at any batch width,
//  * lane order and batch width are irrelevant (1, 3, 8 and 64 lanes),
//  * step() performs no heap allocation after construction, including the
//    ADI refactorization when the substep length changes,
//  * substeps_for() fails loudly (ConfigError) when the explicit stable dt
//    collapses instead of silently looping millions of substeps,
//  * the ADI kernel matches a tight-dt explicit reference within the
//    documented tolerance on the 16-high HBM geometry where dt is >= 10x the
//    explicit stable step,
//  * the documented contracts stay pinned to the prose.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/counters.hpp"
#include "obs/names.hpp"
#include "thermal/batch_stack_model.hpp"
#include "thermal/stack_model.hpp"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_live_allocs{0};

}  // namespace

// Counting allocator (same pattern as test_thermal_kernel): every
// operator-new form funnels through here; counts are read around the calls
// under test.
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

/// Randomized but physically valid stack (mirrors test_thermal_kernel).
StackSpec random_spec(Rng& rng) {
  StackSpec spec;
  spec.floorplan.vaults_x = 1;
  spec.floorplan.vaults_y = 1;
  spec.floorplan.grid.nx = static_cast<std::size_t>(rng.next_in(1, 16));
  spec.floorplan.grid.ny = static_cast<std::size_t>(rng.next_in(1, 10));
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

/// Random per-layer power maps for one lane/model.
std::vector<PowerMap> random_power(const StackSpec& spec, Rng& rng) {
  std::vector<PowerMap> maps;
  const std::size_t n_cells = spec.floorplan.grid.cells();
  for (std::size_t l = 0; l < spec.layers.size(); ++l) {
    PowerMap pm{spec.floorplan.grid};
    const double layer_watts = 8.0 * rng.next_double();
    for (std::size_t c = 0; c < n_cells; ++c) {
      pm.add(c, layer_watts * rng.next_double() / static_cast<double>(n_cells));
    }
    maps.push_back(pm);
  }
  return maps;
}

void expect_lane_matches_scalar(const BatchStackModel& batch, std::size_t lane,
                                const StackModel& ref) {
  for (std::size_t l = 0; l < ref.layer_count(); ++l) {
    for (std::size_t c = 0; c < ref.cells_per_layer(); ++c) {
      // EXPECT_EQ on doubles: exact bit-for-bit agreement, not a tolerance.
      ASSERT_EQ(batch.cell_temp(lane, l, c).value(), ref.cell_temp(l, c).value())
          << "lane " << lane << " layer " << l << " cell " << c;
    }
    ASSERT_EQ(batch.layer_peak(lane, l).value(), ref.layer_peak(l).value());
    ASSERT_EQ(batch.layer_mean(lane, l).value(), ref.layer_mean(l).value());
  }
  ASSERT_EQ(batch.sink_temp(lane).value(), ref.sink_temp().value());
}

TEST(BatchThermal, PerLaneBitIdenticalToScalarReferenceOnRandomStacks) {
  Rng rng{0xbeef'cafe'0001ULL};
  for (int trial = 0; trial < 8; ++trial) {
    const StackSpec spec = random_spec(rng);
    const std::size_t lanes = static_cast<std::size_t>(rng.next_in(1, 6));
    BatchStackModel batch{spec, lanes};

    // Scalar twins: one StackModel per lane, each with the lane's own
    // ambient (exercising the per-lane ambient path) and power.
    std::vector<StackModel> refs;
    refs.reserve(lanes);
    std::vector<std::vector<PowerMap>> powers;
    for (std::size_t v = 0; v < lanes; ++v) {
      StackSpec lane_spec = spec;
      lane_spec.ambient = Celsius{20.0 + 5.0 * static_cast<double>(v)};
      refs.emplace_back(lane_spec);
      batch.set_lane_ambient(v, lane_spec.ambient);
      powers.push_back(random_power(spec, rng));
      for (std::size_t l = 0; l < spec.layers.size(); ++l) {
        refs.back().set_layer_power(l, powers.back()[l]);
        batch.set_layer_power(v, l, powers.back()[l]);
      }
    }
    batch.reset_to_ambient();  // pick up the per-lane ambients

    const Time strides[] = {batch.stable_step(), Time::us(10.0), Time::us(3.3),
                            Time::us(50.0)};
    for (const Time dt : strides) {
      for (int s = 0; s < 3; ++s) {
        batch.step(dt);
        for (auto& ref : refs) ref.step_reference(dt);
      }
      for (std::size_t v = 0; v < lanes; ++v) expect_lane_matches_scalar(batch, v, refs[v]);
    }
  }
}

TEST(BatchThermal, LanePermutationAndBatchWidthInvariance) {
  Rng rng{0x5eed'0002ULL};
  const StackSpec spec = random_spec(rng);
  constexpr std::size_t kLanes = 64;
  std::vector<std::vector<PowerMap>> powers;
  for (std::size_t v = 0; v < kLanes; ++v) powers.push_back(random_power(spec, rng));

  const auto run_lane_set = [&](const std::vector<std::size_t>& order) {
    // One model holding the lanes in `order` (slot -> original lane), each
    // with its own ambient and power; returns every slot's field and sink.
    BatchStackModel model{spec, order.size()};
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
      model.set_lane_ambient(slot, Celsius{20.0 + 0.25 * static_cast<double>(order[slot])});
      for (std::size_t l = 0; l < spec.layers.size(); ++l) {
        model.set_layer_power(slot, l, powers[order[slot]][l]);
      }
    }
    model.reset_to_ambient();
    for (int s = 0; s < 5; ++s) model.step(Time::us(25.0));
    std::vector<std::vector<double>> fields(order.size());
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
      for (std::size_t l = 0; l < spec.layers.size(); ++l) {
        for (std::size_t c = 0; c < model.cells_per_layer(); ++c) {
          fields[slot].push_back(model.cell_temp(slot, l, c).value());
        }
      }
      fields[slot].push_back(model.sink_temp(slot).value());
    }
    return fields;
  };

  std::vector<std::size_t> identity(kLanes);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  const auto forward = run_lane_set(identity);

  // A fixed permutation of the 64 lanes (37 is coprime with 64); each width
  // runs its first `width` entries, so every batch holds a shuffled subset
  // and every lane must reproduce its 64-wide in-order result exactly.
  std::vector<std::size_t> permuted(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) permuted[i] = (37 * i + 11) % kLanes;
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{8}, kLanes}) {
    const std::vector<std::size_t> order(permuted.begin(),
                                         permuted.begin() + static_cast<std::ptrdiff_t>(width));
    const auto got = run_lane_set(order);
    for (std::size_t slot = 0; slot < width; ++slot) {
      ASSERT_EQ(got[slot], forward[order[slot]]) << "width " << width << " slot " << slot;
    }
  }
}

TEST(BatchThermal, ExplicitStepAllocationFreeAfterConstruction) {
  Rng rng{0xa110'c0deULL};
  const StackSpec spec = random_spec(rng);
  obs::CounterRegistry counters;
  BatchStackModel model{spec, 8};
  model.set_counters(&counters);
  for (std::size_t v = 0; v < model.lanes(); ++v) {
    const auto maps = random_power(spec, rng);
    for (std::size_t l = 0; l < spec.layers.size(); ++l) model.set_layer_power(v, l, maps[l]);
  }
  model.step(Time::us(20.0));  // warm-up outside the counted window

  const std::uint64_t before = allocations();
  for (int s = 0; s < 10; ++s) model.step(Time::us(20.0));
  model.step(model.stable_step());
  EXPECT_EQ(allocations(), before) << "batched explicit step allocated";
  EXPECT_GT(counters.counter_value(obs::names::kThermalBatchSweeps), 0u);
}

TEST(BatchThermal, AdiStepAllocationFreeIncludingRefactor) {
  BatchOptions opt;
  opt.kernel = TransientKernel::kAdi;
  StackSpec spec = hbm_stack_spec(16, 10, 8);
  obs::CounterRegistry counters;
  BatchStackModel adi{spec, 4, opt};
  adi.set_counters(&counters);
  for (std::size_t v = 0; v < adi.lanes(); ++v) adi.set_layer_power_uniform(v, 0, 8.0);
  adi.step(Time::ms(1.0));  // warm-up builds the first factorization

  const std::uint64_t before = allocations();
  for (int s = 0; s < 5; ++s) adi.step(Time::ms(1.0));
  adi.step(Time::ms(2.5));  // different substep length: in-place refactor
  EXPECT_EQ(allocations(), before) << "ADI step (incl. refactor) allocated";
  EXPECT_GT(counters.counter_value(obs::names::kThermalBatchAdiSolves), 0u);
}

TEST(BatchThermal, SubstepsForFailsLoudlyWhenStableDtCollapses) {
  // Any dt needing more than kMaxTransientSubsteps explicit substeps must
  // throw, not silently loop for minutes.  5e6 x stable_step > 2^22.
  StackSpec spec = hbm_stack_spec(16, 12, 10);
  StackModel scalar{spec};
  const Time huge = Time::sec(scalar.stable_step().as_sec() * 5.0e6);
  EXPECT_THROW((void)scalar.substeps_for(huge), ConfigError);
  EXPECT_THROW(scalar.step(huge), ConfigError);

  BatchStackModel batch{spec, 2};
  EXPECT_THROW((void)batch.substeps_for(huge), ConfigError);

  // The same dt under ADI stays tractable (factor 32 fewer substeps).
  BatchOptions opt;
  opt.kernel = TransientKernel::kAdi;
  BatchStackModel adi{spec, 2, opt};
  EXPECT_LE(adi.substeps_for(huge), kMaxTransientSubsteps);

  // Non-positive steps are rejected everywhere.
  EXPECT_THROW((void)scalar.substeps_for(Time::zero()), ConfigError);
  EXPECT_THROW((void)batch.substeps_for(Time::zero()), ConfigError);
}

TEST(BatchThermal, AdiMatchesTightDtExplicitOnTallStack) {
  // 16-high HBM-class stack.  The ADI step dt is >= 10x the explicit stable
  // dt (acceptance criterion); the tight-dt explicit reference advances the
  // same dt through the scalar fast path (bit-identical to step_reference).
  StackSpec spec = hbm_stack_spec(16, 12, 10);
  // Interval-simulation heat-capacity scaling (as HmcThermalConfig does):
  // makes the settle fast enough to test while preserving the geometry.
  for (auto& l : spec.layers) l.volumetric_heat_capacity *= 0.05;
  spec.sink_heat_capacity *= 0.05;

  BatchOptions opt;
  opt.kernel = TransientKernel::kAdi;
  BatchStackModel adi{spec, 2, opt};
  StackModel explicit_ref{spec};

  const Time dt = Time::sec(adi.stable_step().as_sec() * 32.0);
  ASSERT_GE(dt.as_sec() / adi.stable_step().as_sec(), 10.0);
  ASSERT_EQ(adi.substeps_for(dt), 1u);  // one ADI pass per step

  // Hot logic die + warm top DRAM, replicated on both lanes.
  adi.set_layer_power_uniform(0, 0, 10.0);
  adi.set_layer_power_uniform(0, 16, 2.0);
  adi.set_layer_power_uniform(1, 0, 10.0);
  adi.set_layer_power_uniform(1, 16, 2.0);
  PowerMap logic{spec.floorplan.grid};
  PowerMap dram{spec.floorplan.grid};
  const auto n_cells = static_cast<double>(spec.floorplan.grid.cells());
  for (std::size_t c = 0; c < spec.floorplan.grid.cells(); ++c) {
    logic.add(c, 10.0 / n_cells);
    dram.add(c, 2.0 / n_cells);
  }
  explicit_ref.set_layer_power(0, logic);
  explicit_ref.set_layer_power(16, dram);

  double max_err = 0.0;
  double max_rise = 0.0;
  for (int s = 0; s < 120; ++s) {
    adi.step(dt);
    explicit_ref.step(dt);
    for (std::size_t l = 0; l < adi.layer_count(); ++l) {
      const double want = explicit_ref.layer_peak(l).value();
      max_rise = std::max(max_rise, want - spec.ambient.value());
      for (std::size_t lane = 0; lane < adi.lanes(); ++lane) {
        max_err = std::max(max_err, std::abs(adi.layer_peak(lane, l).value() - want));
      }
    }
  }
  ASSERT_GT(max_rise, 5.0);  // the transient actually heated the stack
  RecordProperty("max_adi_error_k", std::to_string(max_err));
  // Documented tolerance (DESIGN.md section 13): ADI peak temperatures stay
  // within 2% of the explicit temperature rise at dt = 32x stable.
  EXPECT_LE(max_err, 0.02 * max_rise)
      << "max ADI error " << max_err << " K over rise " << max_rise << " K";
}

std::string read_doc(const std::string& path) {
  std::ifstream doc{path};
  EXPECT_TRUE(doc.is_open()) << path << " missing";
  std::ostringstream ss;
  ss << doc.rdbuf();
  return ss.str();
}

TEST(BatchThermalDocsSync, PerformanceAndDesignDocumentTheContracts) {
  const std::string perf = read_doc(std::string{COOLPIM_DOCS_DIR} + "/PERFORMANCE.md");
  for (const char* needle :
       {"BatchStackModel", "lane-major", "bit-identical", "target_clones", "kAdi",
        "Thomas", "adi_dt_factor", "thermal/batch_lanes"}) {
    EXPECT_NE(perf.find(needle), std::string::npos)
        << needle << " not documented in docs/PERFORMANCE.md";
  }
  const std::string design = read_doc(std::string{COOLPIM_REPO_DIR} + "/DESIGN.md");
  for (const char* needle :
       {"## 13", "BatchStackModel", "structure-of-arrays", "step_reference",
        "kMaxTransientSubsteps", "2% of the explicit temperature rise"}) {
    EXPECT_NE(design.find(needle), std::string::npos)
        << needle << " not documented in DESIGN.md section 13";
  }
}

}  // namespace
}  // namespace coolpim::thermal
