// Compact transient thermal model of a 3D die stack (3D-ICE stand-in).
//
// The stack is discretized into nx*ny cells per die layer.  Heat flows
// laterally within a layer (silicon conduction), vertically between layers
// (through half-die silicon plus a bond/underfill interface), from the top
// layer through the TIM into a lumped heat-sink node, and from the sink to
// ambient through the sink's rated thermal resistance.  The bottom (logic)
// layer leaks weakly into the package substrate/board.
//
//            ambient
//               |  R_sink
//          [sink node]  <- optional co-heater (e.g. FPGA sharing the sink)
//               |  TIM (per cell)
//        [layer N-1]  top DRAM die
//               |   bond interfaces
//             ...
//        [layer 1]    bottom DRAM die
//               |
//        [layer 0]    logic die
//               |  R_board (weak)
//            ambient
//
// Solvers: steady state via Gauss-Seidel/SOR; transient via explicit Euler
// with an automatically chosen stable sub-step (TransientKernel::kExplicit)
// or, for tall stacks on fine grids where that sub-step collapses, an
// unconditionally stable ADI kernel (TransientKernel::kAdi).
//
// Hot-path layout (docs/PERFORMANCE.md): the stencil is precomputed into
// flat structure-of-arrays neighbour-conductance tables (one entry per node
// and direction, zero at boundaries), and the temperature field is stored
// with one layer of ghost cells on either end so every neighbour read is
// in-bounds.  The transient sweep is branch-free -- boundary terms multiply
// a ghost temperature by a zero conductance, which contributes an exact
// (+/-)0.0 and leaves results bit-identical to the guarded reference sweep
// retained as step_reference().  Per-layer peak/mean reductions are cached
// and recomputed in a single pass over the field when the temperatures
// change.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "thermal/floorplan.hpp"

namespace coolpim::thermal {

/// One die layer of the stack.
struct LayerSpec {
  std::string name;
  double thickness_m{50e-6};
  double conductivity{120.0};            // W/(m*K)
  double volumetric_heat_capacity{1.63e6};  // J/(m^3*K)
  /// Interface (bond/underfill) resistance between this layer and the one
  /// above it, m^2*K/W.  Ignored for the top layer (TIM is separate).
  double interface_r_above{1.0e-5};
};

/// Full stack description.  Layer 0 is the bottom (logic) die.
struct StackSpec {
  Floorplan floorplan{};
  std::vector<LayerSpec> layers;
  double tim_r{1.25e-5};                    // m^2*K/W, top die -> sink
  ThermalResistance sink_r{0.5};            // sink -> ambient, C/W
  double sink_heat_capacity{80.0};          // J/K (lumped sink mass)
  double board_r{20.0};                     // C/W bulk, bottom die -> ambient
  Celsius ambient{25.0};
  /// Extra steady heat dumped directly into the sink node, modelling a
  /// co-packaged component sharing the heat sink (the AC-510's FPGA).
  double co_heater_watts{0.0};

  void validate() const;
};

/// HBM-class stack: `dram_dies` thin DRAM dies over one logic die on an
/// nx x ny grid.  The 16-high variant with a fine grid is the multi-stack
/// geometry of the HBM thermal-vulnerability literature; its explicit-Euler
/// stable dt collapses with cell area, which is what TransientKernel::kAdi
/// exists for (docs/PERFORMANCE.md section 7).
[[nodiscard]] StackSpec hbm_stack_spec(std::size_t dram_dies, std::size_t grid_nx,
                                       std::size_t grid_ny);

/// Ceiling on the substep count a single step()/step_reference() call may
/// take.  Tall stacks on fine grids shrink the stable dt quadratically
/// with cell area; silently looping tens of millions of substeps behind one
/// step() call is a hang, not a simulation.  substeps_for() throws ConfigError
/// past this bound and names the ADI kernel as the way out.
inline constexpr std::size_t kMaxTransientSubsteps = std::size_t{1} << 22;

/// The flat-stencil RC network compiled from a StackSpec: per-node
/// neighbour-conductance tables (zero where the neighbour does not exist),
/// mirrored west/south/down views, ghost-padded offset copies for the
/// branch-free sweeps, heat capacities, the lumped-sink coupling and the
/// explicit-Euler stable step.  Read-only once built: copies of a StackModel
/// (and so every lane of a rack) share one instance.
struct StackNetwork {
  std::size_t n_cells{0};
  std::size_t n_nodes{0};

  std::vector<double> g_east;    // node -> node+1 in x
  std::vector<double> g_west;    // node -> node-1 in x
  std::vector<double> g_north;   // node -> node+nx in y
  std::vector<double> g_south;   // node -> node-nx in y
  std::vector<double> g_up;      // node -> node one layer up
  std::vector<double> g_down;    // node -> node one layer down
  // Offset-padded sweep views: same values with n_cells leading zeros, so a
  // transient kernel reads east/west (north/south, up/down) pairs from one
  // array at offsets i and i-1 (i-nx, i-n_cells).
  std::vector<double> g_east_pad;
  std::vector<double> g_north_pad;
  std::vector<double> g_up_pad;
  std::vector<double> g_sink;    // top-layer cells -> sink node
  std::vector<double> g_board;   // bottom-layer cells -> ambient
  std::vector<double> g_diag;    // sum of incident conductances per node
  double g_sink_ambient{0.0};
  double sink_g_total{0.0};

  std::vector<double> cap;       // heat capacities (J/K)
  Time stable_dt{Time::zero()};

  [[nodiscard]] static StackNetwork build(const StackSpec& spec);

  /// Explicit-Euler substeps needed to advance `dt` stably.  Throws
  /// ConfigError when dt is non-positive or the count would exceed
  /// kMaxTransientSubsteps (the tall-stack/fine-grid collapse case).
  [[nodiscard]] std::size_t substeps_for(Time dt) const;
};

/// Initial field for a steady-state solve.
///  - kWarm (default) iterates from the current temperature field unchanged;
///    this is the historical behaviour and is what in-run re-solves (e.g. the
///    warm-up equilibrium jumps in sys::System) rely on staying bit-stable.
///  - kWarmScaled additionally extrapolates the retained field before
///    iterating: the RC network is linear in power, so the temperature rise
///    over ambient is prescaled by the ratio of the current total dissipated
///    power to the total at the previous solve.  Across a parameter sweep
///    this lands the initial guess within the distribution-shape error of
///    the true solution and cuts the iteration count by several times.
///  - kCold resets the whole stack to ambient first, reproducing a solve on
///    a freshly constructed model.
/// All starts converge to the same solution within the solver tolerance.
enum class SteadyStart { kWarm, kWarmScaled, kCold };

/// Which transient integrator step() runs.
enum class TransientKernel {
  kExplicit,  ///< explicit Euler at the stable substep; bit-identical to step_reference()
  kAdi,       ///< implicit ADI line solves; unconditionally stable, tolerance-bounded
};

struct TransientOptions {
  TransientKernel kernel{TransientKernel::kExplicit};
  /// ADI substep length as a multiple of the explicit stable dt.  The ADI
  /// pass is unconditionally stable, so this trades splitting error against
  /// work; 32 keeps a 16-high HBM stack within the documented tolerance of a
  /// tight-dt explicit reference while doing ~32x fewer passes.
  double adi_dt_factor{32.0};
};

class StackModel {
 public:
  /// Compiles the stencil network.  Copies share it (it is immutable), so a
  /// rack of N same-geometry stacks compiles it once.
  explicit StackModel(StackSpec spec, TransientOptions opt = {});

  [[nodiscard]] const StackSpec& spec() const { return spec_; }
  [[nodiscard]] const TransientOptions& options() const { return opt_; }
  [[nodiscard]] std::size_t layer_count() const { return spec_.layers.size(); }
  [[nodiscard]] std::size_t cells_per_layer() const { return spec_.floorplan.grid.cells(); }
  [[nodiscard]] std::size_t node_count() const { return n_nodes_; }

  /// Replace the power map of one layer (watts per cell).
  void set_layer_power(std::size_t layer, const PowerMap& power);
  /// Replace one layer's power with a uniform total (no allocation).
  void set_layer_power_uniform(std::size_t layer, double total_watts);
  /// Convenience: clear all power.
  void clear_power();

  /// Change the ambient (board, sink and ghost-cell boundary temperature)
  /// without touching the current temperature field; reset_to_ambient()
  /// moves the field onto it.
  void set_ambient(Celsius ambient);

  /// Solve for the steady-state temperature field with the current power.
  /// Returns the number of solver iterations used.
  std::size_t solve_steady(double tolerance_k = 1e-4, std::size_t max_iters = 200000,
                           SteadyStart start = SteadyStart::kWarm);

  /// Advance the transient solution by `dt` with the current power, using
  /// the configured kernel.  kExplicit is the branch-free flat-stencil sweep;
  /// kAdi is Lie-split backward-Euler line solves (Thomas algorithm) along
  /// x, y and z, then an implicit sink update.  No heap allocation after
  /// construction for either kernel, including the ADI refactorization when
  /// the substep length changes.
  void step(Time dt);

  /// Retained naive explicit sweep (boundary branches per cell, fresh
  /// scratch vector per call), whatever the configured kernel.  Produces
  /// bit-identical temperatures to a kExplicit step(); kept as the
  /// equivalence-test oracle and the perf-bench baseline.
  void step_reference(Time dt);

  /// Sub-steps one step(dt) performs.  kExplicit: the stable-dt count
  /// (StackNetwork::substeps_for).  kAdi: ceil(dt / (stable_dt *
  /// adi_dt_factor)), minimum 1.  Either way throws ConfigError (never
  /// silently loops) when the count would exceed kMaxTransientSubsteps.
  [[nodiscard]] std::size_t substeps_for(Time dt) const;

  /// The compiled stencil network (read-only, shared by copies).
  [[nodiscard]] const StackNetwork& network() const { return *net_; }

  /// Reset all temperatures to ambient.
  void reset_to_ambient();

  [[nodiscard]] Celsius cell_temp(std::size_t layer, std::size_t cell) const;
  [[nodiscard]] Celsius layer_peak(std::size_t layer) const;
  [[nodiscard]] Celsius layer_mean(std::size_t layer) const;
  /// Peak over layers [first, last] inclusive.
  [[nodiscard]] Celsius peak_over_layers(std::size_t first, std::size_t last) const;
  [[nodiscard]] Celsius sink_temp() const;

  /// Package surface temperature estimate: what a thermal camera aimed at
  /// the package lid would read -- between the top-die and sink temperature.
  [[nodiscard]] Celsius surface_temp() const;

  /// Copy of one layer's temperature field in Celsius (row-major).
  [[nodiscard]] std::vector<double> layer_field(std::size_t layer) const;

  /// Largest stable explicit-Euler step for the current conductances.
  [[nodiscard]] Time stable_step() const { return net_->stable_dt; }

 private:
  /// Per-layer reductions, computed lazily in one pass over the field.
  struct LayerStat {
    double peak_k;
    double mean_k;
  };

  [[nodiscard]] std::size_t node(std::size_t layer, std::size_t cell) const {
    return layer * cells_per_layer() + cell;
  }
  /// Temperature field (Kelvin), skipping the leading ghost block.
  [[nodiscard]] double* field() { return temp_.data() + static_cast<std::ptrdiff_t>(n_cells_); }
  [[nodiscard]] const double* field() const {
    return temp_.data() + static_cast<std::ptrdiff_t>(n_cells_);
  }
  [[nodiscard]] const std::vector<LayerStat>& stats() const;
  void mark_temps_changed() { stats_dirty_ = true; }

  void explicit_substeps(double h, std::size_t n_sub);
  void adi_substeps(double h, std::size_t n_sub);

  StackSpec spec_;
  TransientOptions opt_;
  std::size_t n_cells_{0};
  std::size_t n_nodes_{0};  // layer cells; sink node handled separately

  // Temperatures in Kelvin, ghost-padded: [n_cells ghosts][n_nodes][n_cells
  // ghosts].  Ghost entries hold ambient, are never written, and are only
  // ever multiplied by zero conductances.  `scratch_` has the same shape: the
  // persistent double-buffer partner the explicit sweep swaps with, and the
  // ADI Thomas forward-sweep store.
  std::vector<double> temp_;
  std::vector<double> scratch_;
  double sink_temp_k_{0.0};

  // Power per node (watts).
  std::vector<double> power_w_;

  // The compiled stencil: conductance tables, capacities, sink coupling and
  // the stable step.  Immutable, so copies share it.
  std::shared_ptr<const StackNetwork> net_;

  // ADI factorizations (kAdi only; sized at construction), recomputed in
  // place whenever the substep length changes.  Cell geometry and material
  // are uniform within a layer, so one factorization per (layer, direction)
  // covers every row and column: Thomas coefficients along x and y, one
  // column factorization along z, per-layer cap/h and link conductances,
  // and the sink-update denominator.
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

    void factor(const StackNetwork& net, const StackSpec& spec, double h);
  };
  AdiPlan adi_;

  // Solve history for the kWarmScaled extrapolation: the converged fields
  // and total dissipated watts of the last two steady solves.  watts <= 0
  // means "slot empty".  hist1 is the most recent.
  struct SteadyHistory {
    std::vector<double> field;  // n_nodes, no ghosts
    double sink_k{0.0};
    double watts{-1.0};
  };
  SteadyHistory hist1_;
  SteadyHistory hist2_;

  mutable std::vector<LayerStat> stats_;
  mutable bool stats_dirty_{true};
};

}  // namespace coolpim::thermal
