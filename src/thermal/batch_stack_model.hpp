// Batched transient solver: N independent thermal lanes over one compiled
// stencil network, advanced together by a single sweep pass per substep.
//
// Layout (docs/PERFORMANCE.md section 7, DESIGN.md section 13): temperatures
// are stored lane-major structure-of-arrays -- T[node][lane] with the lane
// index contiguous -- so the hot loops vectorize across *lanes* instead of
// across the cells of one small grid.  Every lane carries its own power map,
// ambient and lumped-sink state; the conductance tables are shared (all
// lanes solve the same StackSpec geometry), read once per node and broadcast
// over the lane vector.
//
// Contracts:
//  - kExplicit lanes are bit-identical to a scalar StackModel driven with the
//    same spec/ambient/power via step_reference(): per lane, every substep
//    performs the same IEEE mul/add/div sequence in the same order, and the
//    batch width never enters the arithmetic.  Lane order is therefore also
//    irrelevant (permutation invariance).
//  - kAdi is an unconditionally stable alternating-direction implicit kernel
//    (Lie splitting, backward-Euler line solves via the Thomas algorithm,
//    batched across lanes) for tall-stack/fine-grid geometries where the
//    explicit stable dt collapses.  It is NOT bit-identical to the explicit
//    kernel; it matches a tight-dt explicit reference within a documented
//    tolerance (DESIGN.md section 13).
//  - step() never allocates after construction (counting-allocator pinned),
//    including the ADI refactorization when the substep length changes.
//
// Every lane shares one geometry and steps by the same dt: this is the
// uniform-lane rack solver fleet::run_fleet's kGrid tier runs (docs/FLEET.md).
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "obs/counters.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::thermal {

/// Which transient integrator a BatchStackModel runs.
enum class TransientKernel {
  kExplicit,  ///< explicit Euler at the stable substep; bit-identical per lane
  kAdi,       ///< implicit ADI line solves; unconditionally stable, tolerance-bounded
};

struct BatchOptions {
  TransientKernel kernel{TransientKernel::kExplicit};
  /// ADI substep length as a multiple of the explicit stable dt.  The ADI
  /// pass is unconditionally stable, so this trades splitting error against
  /// work; 32 keeps a 16-high HBM stack within the documented tolerance of a
  /// tight-dt explicit reference while doing ~32x fewer passes.
  double adi_dt_factor{32.0};
};

class BatchStackModel {
 public:
  BatchStackModel(StackSpec spec, std::size_t lanes, BatchOptions opt = {});

  [[nodiscard]] const StackSpec& spec() const { return spec_; }
  [[nodiscard]] const BatchOptions& options() const { return opt_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] std::size_t layer_count() const { return spec_.layers.size(); }
  [[nodiscard]] std::size_t cells_per_layer() const { return net_.n_cells; }
  [[nodiscard]] std::size_t node_count() const { return net_.n_nodes; }

  /// Replace one lane's power map for one layer (watts per cell).
  void set_layer_power(std::size_t lane, std::size_t layer, const PowerMap& power);
  /// Replace one lane's power for one layer with a uniform total.
  void set_layer_power_uniform(std::size_t lane, std::size_t layer, double total_watts);
  /// Clear all power on all lanes.
  void clear_power();

  /// Per-lane ambient (default: spec.ambient).  Models e.g. a rack thermal
  /// gradient across fleet nodes sharing one geometry.  Does not touch the
  /// current temperature field.
  void set_lane_ambient(std::size_t lane, Celsius ambient);
  [[nodiscard]] Celsius lane_ambient(std::size_t lane) const;

  /// Advance every lane by `dt` with the configured kernel.
  void step(Time dt);

  /// Substeps one step(dt) performs.  kExplicit: the stable-dt count, throwing
  /// ConfigError past kMaxTransientSubsteps (StackNetwork::substeps_for).
  /// kAdi: ceil(dt / (stable_dt * adi_dt_factor)), minimum 1.
  [[nodiscard]] std::size_t substeps_for(Time dt) const;

  /// Reset every lane (field + sink) to its own ambient.
  void reset_to_ambient();

  [[nodiscard]] Celsius cell_temp(std::size_t lane, std::size_t layer, std::size_t cell) const;
  [[nodiscard]] Celsius layer_peak(std::size_t lane, std::size_t layer) const;
  [[nodiscard]] Celsius layer_mean(std::size_t lane, std::size_t layer) const;
  /// Peak over layers [first, last] inclusive for one lane.
  [[nodiscard]] Celsius peak_over_layers(std::size_t lane, std::size_t first,
                                         std::size_t last) const;
  [[nodiscard]] Celsius sink_temp(std::size_t lane) const;

  /// Largest stable explicit-Euler step for the shared network.
  [[nodiscard]] Time stable_step() const { return net_.stable_dt; }
  [[nodiscard]] const StackNetwork& network() const { return net_; }

  /// Attach a counter registry: thermal/batch_lanes, thermal/batch_sweep_passes
  /// and thermal/batch_adi_solves (docs/OBSERVABILITY.md).  Cell references are
  /// cached here so the hot step() path stays allocation-free.
  void set_counters(obs::CounterRegistry* counters);

 private:
  struct LaneLayerStat {
    double peak_k;
    double mean_k;
  };

  /// The live half of fields_ (ghost blocks included) and its partner.
  [[nodiscard]] double* live() { return fields_.data() + live_half_ * half_stride(); }
  [[nodiscard]] const double* live() const {
    return fields_.data() + live_half_ * half_stride();
  }
  [[nodiscard]] double* spare() { return fields_.data() + (1 - live_half_) * half_stride(); }
  /// One cache line of skew between the halves: at a whole number of 4 KiB
  /// apart, the ADI line solves (read one half, write the other at the same
  /// offset) stall on 4K store-to-load aliasing.
  [[nodiscard]] std::size_t half_stride() const { return padded_ + 8; }
  /// The live temperature field, skipping the leading ghost block.
  [[nodiscard]] double* field() { return live() + net_.n_cells * lanes_; }
  [[nodiscard]] const double* field() const { return live() + net_.n_cells * lanes_; }
  void mark_temps_changed() { stats_dirty_ = true; }
  [[nodiscard]] const std::vector<LaneLayerStat>& stats() const;

  void step_explicit(double h, std::size_t n_sub);
  void step_adi(std::size_t n_sub);
  /// Recompute the per-direction Thomas factorizations for substep length h.
  /// Writes into preallocated arrays; no allocation.
  void refactor_adi(double h);

  StackSpec spec_;
  BatchOptions opt_;
  std::size_t lanes_{0};
  StackNetwork net_;

  // Lane-major temperatures (Kelvin) with one n_cells*lanes ghost block of
  // per-lane ambient on either end, twice over in one allocation (one malloc,
  // not two, keeps construction free of heap-trim page faults): the live
  // half and a same-shape spare, the explicit sweep's write target (the
  // halves swap roles every substep) and ADI's Thomas forward-sweep store.
  std::vector<double> fields_;
  std::size_t padded_{0};     // doubles per half
  std::size_t live_half_{0};  // 0 or 1
  std::vector<double> power_w_;     // [node][lane] watts
  std::vector<double> ambient_k_;   // per lane
  std::vector<double> sink_temp_k_;  // per lane
  std::vector<double> sink_flow_;    // per-lane scratch for one substep

  // ADI factorizations, recomputed (in place) whenever the substep length
  // changes: per-layer Thomas coefficients along x and y, one shared column
  // factorization along z, per-layer cap/h, and the sink-update denominator.
  struct AdiPlan {
    double h{0.0};  // substep the plan was built for; 0 = unbuilt
    std::vector<double> cp_x, inv_x;  // [layer][x]
    std::vector<double> cp_y, inv_y;  // [layer][y]
    std::vector<double> cp_z, inv_z;  // [layer]
    std::vector<double> rc;           // [layer] cap/h
    std::vector<double> gx, gy;       // [layer] lateral link conductance
    std::vector<double> gu;           // [layer] layer -> layer+1 link (0 at top)
    double sink_rc{0.0};
    double inv_sink_den{0.0};
  };
  AdiPlan adi_;

  obs::CounterCell* c_lanes_{nullptr};
  obs::CounterCell* c_sweeps_{nullptr};
  obs::CounterCell* c_adi_{nullptr};

  mutable std::vector<LaneLayerStat> stats_;  // [layer][lane]
  mutable bool stats_dirty_{true};
};

}  // namespace coolpim::thermal
