// A rack of same-geometry thermal stacks: N independent StackModel lanes
// over one compiled stencil network, advanced together by step().
//
// Every lane carries its own power map, ambient, field and lumped-sink
// state; the network is built once and shared (StackModel copies share it),
// so a rack costs one network compile plus N field allocations.  Lane i is
// exactly a standalone StackModel built from the same spec and options with
// lane i's ambient and power: same kernel, same arithmetic, bit-identical
// fields (DESIGN.md section 13).  Lane order and rack width therefore never
// enter the arithmetic.
//
// Every lane steps by the same dt: this is the uniform-lane rack solver
// fleet::run_fleet's kGrid tier runs (docs/FLEET.md).
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "obs/counters.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::thermal {

/// The rack's options are a StackModel's.  The repository benchmark's
/// harness spells this name, so it stays.
using BatchOptions = TransientOptions;

class BatchStackModel {
 public:
  BatchStackModel(StackSpec spec, std::size_t lanes, BatchOptions opt = {});

  [[nodiscard]] const StackSpec& spec() const { return spec_; }
  [[nodiscard]] const BatchOptions& options() const { return lanes_.front().options(); }
  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
  [[nodiscard]] std::size_t layer_count() const { return spec_.layers.size(); }
  [[nodiscard]] std::size_t cells_per_layer() const { return network().n_cells; }
  [[nodiscard]] std::size_t node_count() const { return network().n_nodes; }

  /// Replace one lane's power map for one layer (watts per cell).
  void set_layer_power(std::size_t lane_i, std::size_t layer, const PowerMap& power) {
    lane(lane_i).set_layer_power(layer, power);
  }
  /// Replace one lane's power for one layer with a uniform total.
  void set_layer_power_uniform(std::size_t lane_i, std::size_t layer, double total_watts) {
    lane(lane_i).set_layer_power_uniform(layer, total_watts);
  }
  /// Clear all power on all lanes.
  void clear_power();

  /// Per-lane ambient (default: spec.ambient).  Models e.g. a rack thermal
  /// gradient across fleet nodes sharing one geometry.  Does not touch the
  /// current temperature field.
  void set_lane_ambient(std::size_t lane_i, Celsius ambient) { lane(lane_i).set_ambient(ambient); }
  [[nodiscard]] Celsius lane_ambient(std::size_t lane_i) const {
    return lane(lane_i).spec().ambient;
  }

  /// Advance every lane by `dt` with the configured kernel.
  void step(Time dt);

  /// Substeps one step(dt) performs (StackModel::substeps_for).
  [[nodiscard]] std::size_t substeps_for(Time dt) const {
    return lanes_.front().substeps_for(dt);
  }

  /// Reset every lane (field + sink) to its own ambient.
  void reset_to_ambient();

  [[nodiscard]] Celsius cell_temp(std::size_t lane_i, std::size_t layer, std::size_t cell) const {
    return lane(lane_i).cell_temp(layer, cell);
  }
  [[nodiscard]] Celsius layer_peak(std::size_t lane_i, std::size_t layer) const {
    return lane(lane_i).layer_peak(layer);
  }
  [[nodiscard]] Celsius layer_mean(std::size_t lane_i, std::size_t layer) const {
    return lane(lane_i).layer_mean(layer);
  }
  /// Peak over layers [first, last] inclusive for one lane.
  [[nodiscard]] Celsius peak_over_layers(std::size_t lane_i, std::size_t first,
                                         std::size_t last) const {
    return lane(lane_i).peak_over_layers(first, last);
  }
  [[nodiscard]] Celsius sink_temp(std::size_t lane_i) const { return lane(lane_i).sink_temp(); }

  /// Largest stable explicit-Euler step for the shared network.
  [[nodiscard]] Time stable_step() const { return lanes_.front().stable_step(); }
  [[nodiscard]] const StackNetwork& network() const { return lanes_.front().network(); }

  /// Attach a counter registry: thermal/batch_lanes, thermal/batch_sweep_passes
  /// and thermal/batch_adi_solves (docs/OBSERVABILITY.md).  Cell references are
  /// cached here so the hot step() path stays allocation-free.
  void set_counters(obs::CounterRegistry* counters);

 private:
  /// Lane i; out-of-range indices fail the COOLPIM_ASSERT invariant check.
  [[nodiscard]] StackModel& lane(std::size_t i);
  [[nodiscard]] const StackModel& lane(std::size_t i) const;

  StackSpec spec_;
  std::vector<StackModel> lanes_;

  obs::CounterCell* c_lanes_{nullptr};
  obs::CounterCell* c_sweeps_{nullptr};
  obs::CounterCell* c_adi_{nullptr};
};

}  // namespace coolpim::thermal
