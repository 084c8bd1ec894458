// Rack contract tests (DESIGN.md section 13, docs/PERFORMANCE.md section 7):
//  * for both transient kernels, rack lane i is bit-identical to a
//    standalone StackModel built with lane i's ambient and power,
//  * lane order and rack width are irrelevant (1, 3, 8 and 64 lanes),
//  * a copied StackModel shares the compiled network and steps
//    bit-identically to the original,
//  * rack step() performs no heap allocation after construction and ticks
//    the thermal/batch_* counters per step,
//  * substeps_for() fails loudly (ConfigError) when the explicit stable dt
//    collapses instead of silently looping millions of substeps,
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

void expect_models_bit_identical(const StackModel& a, const StackModel& b) {
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (std::size_t c = 0; c < a.cells_per_layer(); ++c) {
      ASSERT_EQ(a.cell_temp(l, c).value(), b.cell_temp(l, c).value())
          << "layer " << l << " cell " << c;
    }
  }
  ASSERT_EQ(a.sink_temp().value(), b.sink_temp().value());
}

BatchOptions kernel_options(TransientKernel kernel) {
  BatchOptions opt;
  opt.kernel = kernel;
  return opt;
}

class RackLane : public ::testing::TestWithParam<TransientKernel> {};

TEST_P(RackLane, BitIdenticalToStandaloneStackModelOnRandomStacks) {
  const BatchOptions opt = kernel_options(GetParam());
  Rng rng{0xbeef'cafe'0001ULL};
  for (int trial = 0; trial < 8; ++trial) {
    const StackSpec spec = random_spec(rng);
    const std::size_t lanes = static_cast<std::size_t>(rng.next_in(1, 6));
    BatchStackModel batch{spec, lanes, opt};

    // Standalone twins: one StackModel per lane, built with the lane's own
    // ambient in its spec (the rack sets it through set_lane_ambient) and
    // driven with the lane's power.
    std::vector<StackModel> refs;
    refs.reserve(lanes);
    for (std::size_t v = 0; v < lanes; ++v) {
      StackSpec lane_spec = spec;
      lane_spec.ambient = Celsius{20.0 + 5.0 * static_cast<double>(v)};
      refs.emplace_back(lane_spec, opt);
      batch.set_lane_ambient(v, lane_spec.ambient);
      const auto power = random_power(spec, rng);
      for (std::size_t l = 0; l < spec.layers.size(); ++l) {
        refs.back().set_layer_power(l, power[l]);
        batch.set_layer_power(v, l, power[l]);
      }
    }
    batch.reset_to_ambient();  // pick up the per-lane ambients

    const Time strides[] = {batch.stable_step(), Time::us(10.0), Time::us(3.3),
                            Time::us(50.0), Time::ms(2.0)};
    for (const Time dt : strides) {
      if (GetParam() == TransientKernel::kExplicit && dt > Time::us(50.0)) continue;
      for (int s = 0; s < 3; ++s) {
        batch.step(dt);
        for (auto& ref : refs) ref.step(dt);
      }
      for (std::size_t v = 0; v < lanes; ++v) expect_lane_matches_scalar(batch, v, refs[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothKernels, RackLane,
                         ::testing::Values(TransientKernel::kExplicit, TransientKernel::kAdi),
                         [](const auto& info) {
                           return info.param == TransientKernel::kAdi ? "Adi" : "Explicit";
                         });

TEST(BatchThermal, CopiedStackModelSharesNetworkAndStepsIdentically) {
  Rng rng{0xc0b1'e5ULL};
  for (const TransientKernel kernel : {TransientKernel::kExplicit, TransientKernel::kAdi}) {
    const StackSpec spec = random_spec(rng);
    StackModel original{spec, kernel_options(kernel)};
    const auto power = random_power(spec, rng);
    for (std::size_t l = 0; l < spec.layers.size(); ++l) original.set_layer_power(l, power[l]);
    original.step(Time::us(20.0));

    StackModel copy = original;
    EXPECT_EQ(&copy.network(), &original.network()) << "copy recompiled the network";
    for (int s = 0; s < 4; ++s) {
      original.step(Time::us(20.0));
      copy.step(Time::us(20.0));
    }
    expect_models_bit_identical(copy, original);
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

TEST(BatchThermal, RackStepAllocationFreeAndCounted) {
  // 16-high HBM geometry: the explicit kernel takes many substeps per 1 ms,
  // ADI one per 32 stable steps, and a 2.5 ms step changes the ADI substep
  // length (an in-place refactor).
  const StackSpec spec = hbm_stack_spec(16, 10, 8);
  for (const TransientKernel kernel : {TransientKernel::kExplicit, TransientKernel::kAdi}) {
    obs::CounterRegistry counters;
    BatchStackModel rack{spec, 4, kernel_options(kernel)};
    rack.set_counters(&counters);
    for (std::size_t v = 0; v < rack.lanes(); ++v) rack.set_layer_power_uniform(v, 0, 8.0);
    rack.step(Time::ms(1.0));  // warm-up: the first ADI factorization

    const std::uint64_t before = allocations();
    for (int s = 0; s < 5; ++s) rack.step(Time::ms(1.0));
    rack.step(Time::ms(2.5));
    EXPECT_EQ(allocations(), before) << "rack step allocated";

    // thermal/batch_lanes ticks once per lane per step; the pass counter of
    // the configured kernel ticks once per substep of the whole rack.
    const std::uint64_t passes = 6 * rack.substeps_for(Time::ms(1.0)) +
                                 rack.substeps_for(Time::ms(2.5));
    const bool adi = kernel == TransientKernel::kAdi;
    EXPECT_EQ(counters.counter_value(obs::names::kThermalBatchLanes), 7u * rack.lanes());
    EXPECT_EQ(counters.counter_value(obs::names::kThermalBatchSweeps), adi ? 0u : passes);
    EXPECT_EQ(counters.counter_value(obs::names::kThermalBatchAdiSolves), adi ? passes : 0u);
  }
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

  // The same dt under ADI stays tractable (factor 32 fewer substeps), while
  // step_reference() stays the explicit oracle whatever the kernel.
  StackModel adi{spec, kernel_options(TransientKernel::kAdi)};
  EXPECT_LE(adi.substeps_for(huge), kMaxTransientSubsteps);
  EXPECT_THROW(adi.step_reference(huge), ConfigError);
  EXPECT_THROW((StackModel{spec, {TransientKernel::kAdi, 0.5}}), ConfigError);

  // Non-positive steps are rejected everywhere.
  EXPECT_THROW((void)scalar.substeps_for(Time::zero()), ConfigError);
  EXPECT_THROW((void)batch.substeps_for(Time::zero()), ConfigError);
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
       {"BatchStackModel", "shared network", "bit-identical", "kAdi", "Thomas",
        "adi_dt_factor", "thermal/batch_lanes"}) {
    EXPECT_NE(perf.find(needle), std::string::npos)
        << needle << " not documented in docs/PERFORMANCE.md";
  }
  const std::string design = read_doc(std::string{COOLPIM_REPO_DIR} + "/DESIGN.md");
  for (const char* needle :
       {"## 13", "One transient solver", "BatchStackModel", "step_reference",
        "kMaxTransientSubsteps", "2% of the explicit temperature rise"}) {
    EXPECT_NE(design.find(needle), std::string::npos)
        << needle << " not documented in DESIGN.md section 13";
  }
}

}  // namespace
}  // namespace coolpim::thermal
