#include "thermal/stack_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace coolpim::thermal {

void StackSpec::validate() const {
  floorplan.validate();
  COOLPIM_REQUIRE(!layers.empty(), "stack needs at least one layer");
  COOLPIM_REQUIRE(tim_r > 0, "TIM resistance must be positive");
  COOLPIM_REQUIRE(sink_r.value() > 0, "sink resistance must be positive");
  COOLPIM_REQUIRE(board_r > 0, "board resistance must be positive");
  COOLPIM_REQUIRE(sink_heat_capacity > 0, "sink heat capacity must be positive");
  for (const auto& l : layers) {
    COOLPIM_REQUIRE(l.thickness_m > 0 && l.conductivity > 0 && l.volumetric_heat_capacity > 0,
                    "layer properties must be positive: " + l.name);
    COOLPIM_REQUIRE(l.interface_r_above > 0, "interface resistance must be positive: " + l.name);
  }
}

StackSpec hbm_stack_spec(std::size_t dram_dies, std::size_t grid_nx, std::size_t grid_ny) {
  COOLPIM_REQUIRE(dram_dies >= 1, "HBM stack needs at least one DRAM die");
  StackSpec spec;
  spec.floorplan.die_width_m = 11.0e-3;   // HBM-class ~92 mm^2 footprint
  spec.floorplan.die_height_m = 8.4e-3;
  spec.floorplan.vaults_x = 8;
  spec.floorplan.vaults_y = 4;
  spec.floorplan.grid.nx = grid_nx;
  spec.floorplan.grid.ny = grid_ny;

  LayerSpec logic;
  logic.name = "logic";
  logic.thickness_m = 100e-6;
  logic.conductivity = 120.0;
  logic.interface_r_above = 4.5e-6;
  spec.layers.push_back(logic);
  for (std::size_t d = 0; d < dram_dies; ++d) {
    LayerSpec dram;
    dram.name = "dram" + std::to_string(d);
    dram.thickness_m = 50e-6;  // thinned core dies, tall-stack bonding
    dram.conductivity = 120.0;
    dram.interface_r_above = 4.5e-6;
    spec.layers.push_back(dram);
  }
  spec.tim_r = 5.0e-6;
  spec.sink_r = ThermalResistance{0.7};
  spec.sink_heat_capacity = 2.0;
  spec.board_r = 20.0;
  return spec;
}

StackNetwork StackNetwork::build(const StackSpec& spec) {
  const auto& fp = spec.floorplan;
  const std::size_t nx = fp.grid.nx;
  const std::size_t ny = fp.grid.ny;
  const double cw = fp.cell_width_m();
  const double ch = fp.cell_height_m();
  const double area = fp.cell_area_m2();
  const std::size_t n_layers = spec.layers.size();

  StackNetwork net;
  net.n_cells = fp.grid.cells();
  net.n_nodes = net.n_cells * n_layers;
  const std::size_t n_cells = net.n_cells;
  const std::size_t n_nodes = net.n_nodes;
  const auto node = [n_cells](std::size_t layer, std::size_t cell) {
    return layer * n_cells + cell;
  };

  net.g_east.assign(n_nodes, 0.0);
  net.g_west.assign(n_nodes, 0.0);
  net.g_north.assign(n_nodes, 0.0);
  net.g_south.assign(n_nodes, 0.0);
  net.g_up.assign(n_nodes, 0.0);
  net.g_down.assign(n_nodes, 0.0);
  net.g_sink.assign(n_nodes, 0.0);
  net.g_board.assign(n_nodes, 0.0);
  net.g_diag.assign(n_nodes, 0.0);
  net.cap.assign(n_nodes, 0.0);

  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto& layer = spec.layers[l];
    const double t = layer.thickness_m;
    const double k = layer.conductivity;
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t nidx = node(l, fp.grid.index(x, y));
        net.cap[nidx] = layer.volumetric_heat_capacity * area * t;
        // Lateral conduction through the die cross-section.
        if (x + 1 < nx) net.g_east[nidx] = k * t * ch / cw;
        if (y + 1 < ny) net.g_north[nidx] = k * t * cw / ch;
        // Vertical conduction: half-die + interface + half-die above.
        if (l + 1 < n_layers) {
          const auto& above = spec.layers[l + 1];
          const double r = t / (2.0 * k) + layer.interface_r_above +
                           above.thickness_m / (2.0 * above.conductivity);
          net.g_up[nidx] = area / r;
        } else {
          // Top layer couples to the lumped sink node through half-die + TIM.
          const double r = t / (2.0 * k) + spec.tim_r;
          net.g_sink[nidx] = area / r;
        }
        if (l == 0) {
          // Bottom layer leaks into the board: bulk resistance shared by all
          // bottom cells.
          net.g_board[nidx] = 1.0 / (spec.board_r * static_cast<double>(n_cells));
        }
      }
    }
  }

  // Mirrored neighbour views: a node's west/south/down conductance is the
  // owning (west/south/lower) neighbour's east/north/up entry, zero at the
  // boundary.  These make the sweeps branch-free.
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t nidx = node(l, fp.grid.index(x, y));
        if (x > 0) net.g_west[nidx] = net.g_east[nidx - 1];
        if (y > 0) net.g_south[nidx] = net.g_north[nidx - nx];
        if (l > 0) net.g_down[nidx] = net.g_up[nidx - n_cells];
      }
    }
  }

  // Offset-padded copies for the transient sweep: with nc leading zeros, a
  // node's west/south/down conductance is the same array read at i-1 / i-nx /
  // i-nc (row-end east, column-end north and top-layer up entries are zero,
  // so the wrapped reads land on exact zeros -- the mirror arrays above hold
  // the same values).  Reading one array at two offsets instead of two
  // arrays halves the conductance cache traffic of the hot loop.
  const auto pad = [&](const std::vector<double>& src, std::vector<double>& dst) {
    dst.assign(n_cells + n_nodes, 0.0);
    std::copy(src.begin(), src.end(), dst.begin() + static_cast<std::ptrdiff_t>(n_cells));
  };
  pad(net.g_east, net.g_east_pad);
  pad(net.g_north, net.g_north_pad);
  pad(net.g_up, net.g_up_pad);

  // Accumulate per-node incident conductance for diag / stability.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    net.g_diag[i] = net.g_up[i] + net.g_sink[i] + net.g_board[i] + net.g_east[i] +
                    net.g_west[i] + net.g_north[i] + net.g_south[i] + net.g_down[i];
  }

  net.g_sink_ambient = 1.0 / spec.sink_r.value();
  net.sink_g_total = net.g_sink_ambient;
  for (const auto g : net.g_sink) net.sink_g_total += g;

  // Stable explicit-Euler step: dt < min_i C_i / G_i (with safety margin).
  double dt_min = spec.sink_heat_capacity / net.sink_g_total;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    dt_min = std::min(dt_min, net.cap[i] / net.g_diag[i]);
  }
  net.stable_dt = Time::sec(0.5 * dt_min);
  COOLPIM_ASSERT(net.stable_dt > Time::zero());
  return net;
}

std::size_t StackNetwork::substeps_for(Time dt) const {
  COOLPIM_REQUIRE(dt > Time::zero(), "transient step must be positive");
  const double n = std::ceil(dt.as_sec() / stable_dt.as_sec());
  // Fail loudly on the tall-stack/fine-grid collapse: an explicit step that
  // needs millions of substeps is a hang masquerading as progress.  The ADI
  // kernel is unconditionally stable and exists for exactly this regime.
  COOLPIM_REQUIRE(n <= static_cast<double>(kMaxTransientSubsteps),
                  "explicit transient step needs " + std::to_string(n) +
                      " substeps (> kMaxTransientSubsteps); stable dt has collapsed -- "
                      "shorten the step or use the ADI kernel "
                      "(thermal::TransientKernel::kAdi)");
  return static_cast<std::size_t>(n);
}

StackModel::StackModel(StackSpec spec, TransientOptions opt)
    : spec_{std::move(spec)}, opt_{opt} {
  spec_.validate();
  COOLPIM_REQUIRE(opt_.adi_dt_factor >= 1.0, "adi_dt_factor must be >= 1");
  n_cells_ = spec_.floorplan.grid.cells();
  n_nodes_ = n_cells_ * spec_.layers.size();
  // Ghost-padded field: one layer-sized block of ambient cells before and
  // after the live nodes, so neighbour reads at +/-1, +/-nx and +/-n_cells
  // stay in-bounds at every boundary.
  temp_.assign(n_nodes_ + 2 * n_cells_, spec_.ambient.as_kelvin());
  scratch_.assign(n_nodes_ + 2 * n_cells_, spec_.ambient.as_kelvin());
  sink_temp_k_ = spec_.ambient.as_kelvin();
  power_w_.assign(n_nodes_, 0.0);
  stats_.resize(spec_.layers.size());
  net_ = std::make_shared<const StackNetwork>(StackNetwork::build(spec_));
  if (opt_.kernel == TransientKernel::kAdi) {
    const std::size_t n_layers = spec_.layers.size();
    const auto& grid = spec_.floorplan.grid;
    for (auto* v : {&adi_.cp_x, &adi_.inv_x}) v->assign(n_layers * grid.nx, 0.0);
    for (auto* v : {&adi_.cp_y, &adi_.inv_y}) v->assign(n_layers * grid.ny, 0.0);
    for (auto* v : {&adi_.cp_z, &adi_.inv_z, &adi_.rc, &adi_.gx, &adi_.gy, &adi_.gu}) {
      v->assign(n_layers, 0.0);
    }
  }
}

void StackModel::set_layer_power(std::size_t layer, const PowerMap& power) {
  COOLPIM_REQUIRE(layer < spec_.layers.size(), "layer index out of range");
  COOLPIM_ASSERT(power.dims().cells() == n_cells_);
  for (std::size_t c = 0; c < n_cells_; ++c) {
    power_w_[node(layer, c)] = power.at(c);
  }
}

void StackModel::set_layer_power_uniform(std::size_t layer, double total_watts) {
  COOLPIM_REQUIRE(layer < spec_.layers.size(), "layer index out of range");
  const double per_cell = total_watts / static_cast<double>(n_cells_);
  std::fill_n(power_w_.begin() + static_cast<std::ptrdiff_t>(node(layer, 0)), n_cells_, per_cell);
}

void StackModel::clear_power() { std::fill(power_w_.begin(), power_w_.end(), 0.0); }

void StackModel::set_ambient(Celsius ambient) {
  spec_.ambient = ambient;
  // The ghost blocks only ever multiply zero conductances (the arithmetic
  // cannot see them), but they are documented to hold ambient.
  const double amb_k = ambient.as_kelvin();
  for (auto* v : {&temp_, &scratch_}) {
    std::fill_n(v->begin(), n_cells_, amb_k);
    std::fill_n(v->end() - static_cast<std::ptrdiff_t>(n_cells_), n_cells_, amb_k);
  }
}

std::size_t StackModel::solve_steady(double tolerance_k, std::size_t max_iters,
                                     SteadyStart start) {
  double total_watts = spec_.co_heater_watts;
  for (const double p : power_w_) total_watts += p;

  if (start == SteadyStart::kCold) {
    reset_to_ambient();
  } else if (start == SteadyStart::kWarmScaled && hist1_.watts > 0.0) {
    // Shape the initial guess from previous solves (the network is linear in
    // power, so solutions extrapolate well along a sweep).  With two history
    // points, per-node secant extrapolation in total power tracks even the
    // changing spatial shape of the power map; with one, scale the rise over
    // ambient by the total-power ratio.  Either way this only sets the
    // initial guess -- the solve below converges to the same fixed point.
    const double amb = spec_.ambient.as_kelvin();
    double* T = field();
    const double dp = hist1_.watts - hist2_.watts;
    if (hist2_.watts > 0.0 && std::abs(dp) > 1e-9 * hist1_.watts) {
      const double a = (total_watts - hist1_.watts) / dp;
      for (std::size_t i = 0; i < n_nodes_; ++i) {
        T[i] = hist1_.field[i] + a * (hist1_.field[i] - hist2_.field[i]);
      }
      sink_temp_k_ = hist1_.sink_k + a * (hist1_.sink_k - hist2_.sink_k);
    } else if (total_watts > 0.0) {
      const double k = total_watts / hist1_.watts;
      for (std::size_t i = 0; i < n_nodes_; ++i) T[i] = amb + (T[i] - amb) * k;
      sink_temp_k_ = amb + (sink_temp_k_ - amb) * k;
    }
  }

  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.nx);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(n_nodes_);
  const std::size_t n_layers = spec_.layers.size();
  const double ambient_k = spec_.ambient.as_kelvin();
  const double omega = 1.85;  // SOR over-relaxation
  const StackNetwork& net = *net_;
  double* T = field();

  std::size_t iter = 0;
  for (; iter < max_iters; ++iter) {
    double max_delta = 0.0;

    // Sink node first (Gauss-Seidel: uses the freshest neighbour values).
    {
      double num = net.g_sink_ambient * ambient_k + spec_.co_heater_watts;
      const double* top = T + static_cast<std::ptrdiff_t>((n_layers - 1) * n_cells_);
      const double* gs = net.g_sink.data() + static_cast<std::ptrdiff_t>((n_layers - 1) * n_cells_);
      for (std::ptrdiff_t c = 0; c < nc; ++c) {
        num += gs[c] * top[c];
      }
      const double t_new = num / net.sink_g_total;
      max_delta = std::max(max_delta, std::abs(t_new - sink_temp_k_));
      sink_temp_k_ = t_new;
    }

    // Branch-free SOR sweep: boundary directions carry a zero conductance,
    // so their ghost reads contribute an exact +0.0 (same bits as the old
    // guarded loop that skipped them).
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      const double* Ti = T + i;
      double num = power_w_[static_cast<std::size_t>(i)];
      num += net.g_east[static_cast<std::size_t>(i)] * Ti[1];
      num += net.g_west[static_cast<std::size_t>(i)] * Ti[-1];
      num += net.g_north[static_cast<std::size_t>(i)] * Ti[nx];
      num += net.g_south[static_cast<std::size_t>(i)] * Ti[-nx];
      num += net.g_up[static_cast<std::size_t>(i)] * Ti[nc];
      num += net.g_down[static_cast<std::size_t>(i)] * Ti[-nc];
      num += net.g_sink[static_cast<std::size_t>(i)] * sink_temp_k_;
      num += net.g_board[static_cast<std::size_t>(i)] * ambient_k;

      const double t_old = *Ti;
      const double t_gs = num / net.g_diag[static_cast<std::size_t>(i)];
      const double t_new = t_old + omega * (t_gs - t_old);
      max_delta = std::max(max_delta, std::abs(t_new - t_old));
      T[i] = t_new;
    }

    if (max_delta < tolerance_k) break;
  }
  COOLPIM_ASSERT_MSG(iter < max_iters, "steady-state solve did not converge");
  mark_temps_changed();
  // Record this solution for future kWarmScaled guesses.  The swap recycles
  // the older slot's buffer, so after two solves this is allocation-free.
  std::swap(hist1_, hist2_);
  hist1_.field.assign(T, T + n);
  hist1_.sink_k = sink_temp_k_;
  hist1_.watts = total_watts;
  return iter + 1;
}

std::size_t StackModel::substeps_for(Time dt) const {
  if (opt_.kernel == TransientKernel::kExplicit) return net_->substeps_for(dt);
  COOLPIM_REQUIRE(dt > Time::zero(), "transient step must be positive");
  const double n = std::ceil(dt.as_sec() / (net_->stable_dt.as_sec() * opt_.adi_dt_factor));
  COOLPIM_REQUIRE(n <= static_cast<double>(kMaxTransientSubsteps),
                  "transient step needs " + std::to_string(n) +
                      " ADI substeps (> kMaxTransientSubsteps); split the step");
  return n < 1.0 ? std::size_t{1} : static_cast<std::size_t>(n);
}

namespace {

// Runtime-dispatched AVX2 clones of the stencil kernels where the toolchain
// supports ifunc multiversioning (x86-64 ELF).  AVX2 widens the vectors to
// four lanes; it does not enable FMA, so every lane performs the same IEEE
// mul/add/div sequence and results stay bit-identical to the default clone.
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define COOLPIM_STENCIL_CLONES __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef COOLPIM_STENCIL_CLONES
#define COOLPIM_STENCIL_CLONES
#endif

/// One explicit-Euler substep over one layer below the top one: a pure
/// elementwise map with no reduction, written as a free function with
/// __restrict parameters so GCC's dependence analysis vectorizes it (the
/// qualifier is only reliably honoured on function parameters).  The sink
/// term is omitted entirely: g_sink is zero below the top layer, and
/// skipping a `flow += 0 * (...)` is bit-exact because `flow` is never -0.0
/// at that point (power is non-negative and a round-to-nearest sum of
/// cancelling non-zeros yields +0.0), so adding the zero product could not
/// have changed it.
///
/// Vertical, board, capacitance and north/south conductances are uniform
/// over a whole row band by construction (uniform cell geometry, per-layer
/// material; the north/south links only vanish on the first/last row), so
/// they arrive as broadcast scalars -- the exact values the table-driven
/// reference loads per cell.  Only the east table remains an array: its
/// row-edge zeros sit mid-span, and reading it at i and i-1 covers the
/// west link too.  One layer is three contiguous spans: first row, interior
/// rows, last row.
COOLPIM_STENCIL_CLONES
void substep_span(const double* __restrict T, double* __restrict N,
                  const double* __restrict pw, const double* __restrict ge,
                  std::ptrdiff_t begin, std::ptrdiff_t end, std::ptrdiff_t nx,
                  std::ptrdiff_t nc, double g_n, double g_s, double g_up, double g_down,
                  double g_board, double cap, double h, double ambient_k) {
  for (std::ptrdiff_t i = begin; i < end; ++i) {
    const double t = T[i];
    double flow = pw[i];
    flow += ge[i] * (T[i + 1] - t);
    flow += ge[i - 1] * (T[i - 1] - t);
    flow += g_n * (T[i + nx] - t);
    flow += g_s * (T[i - nx] - t);
    flow += g_up * (T[i + nc] - t);
    flow += g_down * (T[i - nc] - t);
    flow += g_board * (ambient_k - t);
    N[i] = t + h * flow / cap;
  }
}

/// Top-layer substep: same stencil plus the TIM coupling into the lumped
/// sink node.  The scalar sink_flow reduction confines the only
/// vectorization-hostile statement of the sweep to these n_cells nodes.
/// Returns the accumulated heat flow into the sink.
COOLPIM_STENCIL_CLONES
double substep_top(const double* __restrict T, double* __restrict N,
                   const double* __restrict pw, const double* __restrict ge,
                   const double* __restrict gn, const double* __restrict gu,
                   const double* __restrict gsk, const double* __restrict gb,
                   const double* __restrict cap, std::ptrdiff_t nx, std::ptrdiff_t nc,
                   std::ptrdiff_t top, std::ptrdiff_t n, double h, double ambient_k,
                   double sink_t, double sink_flow) {
  for (std::ptrdiff_t i = top; i < n; ++i) {
    const double t = T[i];
    double flow = pw[i];
    flow += ge[i] * (T[i + 1] - t);
    flow += ge[i - 1] * (T[i - 1] - t);
    flow += gn[i] * (T[i + nx] - t);
    flow += gn[i - nx] * (T[i - nx] - t);
    flow += gu[i] * (T[i + nc] - t);
    flow += gu[i - nc] * (T[i - nc] - t);
    const double f = gsk[i] * (sink_t - t);
    flow += f;
    sink_flow -= f;
    flow += gb[i] * (ambient_k - t);
    N[i] = t + h * flow / cap[i];
  }
  return sink_flow;
}

/// Backward-Euler Thomas solves of the `lines` homogeneous diffusion lines
/// of one layer (x or y pass of the ADI split):
/// (C/h) T* - g*(neighbour coupling) = (C/h) T^n.  Element k of line j sits
/// at j*line_stride + k*elem_stride.  The inner loops run across lines --
/// rows (stride nx) in the x pass, columns (contiguous) in the y pass -- so
/// the lines advance side by side instead of as one serial recurrence.
/// `cp`/`inv` are the precomputed elimination coefficients and S is the
/// forward-sweep store (the scratch field at the same offsets as T).
COOLPIM_STENCIL_CLONES
void thomas_lines(double* __restrict T, double* __restrict S, const double* __restrict cp,
                  const double* __restrict inv, double g, double rc, std::ptrdiff_t m,
                  std::ptrdiff_t lines, std::ptrdiff_t elem_stride, std::ptrdiff_t line_stride) {
  const double i0 = inv[0];
  for (std::ptrdiff_t j = 0; j < lines; ++j) {
    const std::ptrdiff_t a = j * line_stride;
    S[a] = rc * T[a] * i0;
  }
  for (std::ptrdiff_t k = 1; k < m; ++k) {
    const double ik = inv[k];
    for (std::ptrdiff_t j = 0; j < lines; ++j) {
      const std::ptrdiff_t a = k * elem_stride + j * line_stride;
      S[a] = (rc * T[a] + g * S[a - elem_stride]) * ik;
    }
  }
  for (std::ptrdiff_t j = 0; j < lines; ++j) {
    const std::ptrdiff_t a = (m - 1) * elem_stride + j * line_stride;
    T[a] = S[a];
  }
  for (std::ptrdiff_t k = m - 2; k >= 0; --k) {
    const double cpk = cp[k];
    for (std::ptrdiff_t j = 0; j < lines; ++j) {
      const std::ptrdiff_t a = k * elem_stride + j * line_stride;
      T[a] = S[a] - cpk * T[a + elem_stride];
    }
  }
}

/// z pass: every one of the nc vertical columns solved side by side, layer
/// by layer (each layer is contiguous).  Carries the power sources, the
/// board leak into layer 0 (`board_in` = g_board * ambient) and the TIM
/// coupling of the top layer against the lagged sink (`sink_in` = g_sink *
/// T_sink).  gup[l] is the layer->layer+1 link, rc[l] = cap_l/h.
COOLPIM_STENCIL_CLONES
void thomas_z(double* __restrict T, double* __restrict S, const double* __restrict pw,
              const double* __restrict cp, const double* __restrict inv,
              const double* __restrict gup, const double* __restrict rc, double board_in,
              double sink_in, std::ptrdiff_t m, std::ptrdiff_t nc) {
  {
    const double i0 = inv[0];
    const double rc0 = rc[0];
    const double top_in = (m == 1) ? sink_in : 0.0;
    for (std::ptrdiff_t c = 0; c < nc; ++c) {
      const double d = rc0 * T[c] + pw[c] + board_in + top_in;
      S[c] = d * i0;
    }
  }
  for (std::ptrdiff_t k = 1; k < m; ++k) {
    const double* Tk = T + k * nc;
    const double* pwk = pw + k * nc;
    const double* Sp = S + (k - 1) * nc;
    double* Sk = S + k * nc;
    const double gd = gup[k - 1];
    const double ik = inv[k];
    const double rck = rc[k];
    const double top_in = (k == m - 1) ? sink_in : 0.0;
    for (std::ptrdiff_t c = 0; c < nc; ++c) {
      const double d = rck * Tk[c] + pwk[c] + top_in;
      Sk[c] = (d + gd * Sp[c]) * ik;
    }
  }
  {
    double* Tl = T + (m - 1) * nc;
    const double* Sl = S + (m - 1) * nc;
    for (std::ptrdiff_t c = 0; c < nc; ++c) Tl[c] = Sl[c];
  }
  for (std::ptrdiff_t k = m - 2; k >= 0; --k) {
    double* Tk = T + k * nc;
    const double* Sk = S + k * nc;
    const double* Tn = T + (k + 1) * nc;
    const double cpk = cp[k];
    for (std::ptrdiff_t c = 0; c < nc; ++c) Tk[c] = Sk[c] - cpk * Tn[c];
  }
}

}  // namespace

void StackModel::step(Time dt) {
  const std::size_t n_sub = substeps_for(dt);
  const double h = dt.as_sec() / static_cast<double>(n_sub);
  if (opt_.kernel == TransientKernel::kAdi) {
    adi_substeps(h, n_sub);
  } else {
    explicit_substeps(h, n_sub);
  }
  mark_temps_changed();
}

void StackModel::explicit_substeps(double h, std::size_t n_sub) {
  const double ambient_k = spec_.ambient.as_kelvin();

  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.nx);
  const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.ny);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(n_nodes_);
  const double* pw = power_w_.data();
  const double* ge = net_->g_east_pad.data() + nc;  // ge[i-1] is the west link
  const double* gn = net_->g_north_pad.data() + nc;
  const double* gu = net_->g_up_pad.data() + nc;
  const double* gsk = net_->g_sink.data();
  const double* gb = net_->g_board.data();
  const double* cap = net_->cap.data();
  const std::ptrdiff_t top = n - nc;

  const std::size_t n_layers = spec_.layers.size();

  for (std::size_t s = 0; s < n_sub; ++s) {
    const double* T = temp_.data() + nc;
    double* N = scratch_.data() + nc;
    const double sink_t = sink_temp_k_;
    double sink_flow = net_->g_sink_ambient * (ambient_k - sink_t) + spec_.co_heater_watts;
    for (std::size_t l = 0; l + 1 < n_layers; ++l) {
      const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(l) * nc;
      // Per-layer uniform conductances, read once from the tables (cell 0
      // has live north/up links whenever the grid extends that way).  The
      // down-link of layer 0 is the zero pad: its ghost-temperature term
      // contributes an exact +/-0.0, as in the fused table-driven sweep.
      const double g_n_l = gn[base];
      const double g_up_l = gu[base];
      const double g_down_l = gu[base - nc];
      const double g_board_l = gb[base];
      const double cap_l = cap[base];
      const double* Tl = T + base;
      double* Nl = N + base;
      const double* pwl = pw + base;
      const double* gel = ge + base;
      if (ny == 1) {
        substep_span(Tl, Nl, pwl, gel, 0, nc, nx, nc, 0.0, 0.0, g_up_l, g_down_l, g_board_l,
                     cap_l, h, ambient_k);
      } else {
        substep_span(Tl, Nl, pwl, gel, 0, nx, nx, nc, g_n_l, 0.0, g_up_l, g_down_l, g_board_l,
                     cap_l, h, ambient_k);
        substep_span(Tl, Nl, pwl, gel, nx, nc - nx, nx, nc, g_n_l, g_n_l, g_up_l, g_down_l,
                     g_board_l, cap_l, h, ambient_k);
        substep_span(Tl, Nl, pwl, gel, nc - nx, nc, nx, nc, 0.0, g_n_l, g_up_l, g_down_l,
                     g_board_l, cap_l, h, ambient_k);
      }
    }
    sink_flow = substep_top(T, N, pw, ge, gn, gu, gsk, gb, cap, nx, nc, top, n, h, ambient_k,
                            sink_t, sink_flow);
    sink_temp_k_ += h * sink_flow / spec_.sink_heat_capacity;
    temp_.swap(scratch_);
  }
}

void StackModel::AdiPlan::factor(const StackNetwork& net, const StackSpec& spec, double h_new) {
  if (h == h_new) return;
  const std::size_t n_layers = spec.layers.size();
  const auto& grid = spec.floorplan.grid;
  const std::size_t nc = net.n_cells;

  for (std::size_t l = 0; l < n_layers; ++l) {
    rc[l] = net.cap[l * nc] / h_new;
    gx[l] = grid.nx > 1 ? net.g_east[l * nc] : 0.0;
    gy[l] = grid.ny > 1 ? net.g_north[l * nc] : 0.0;
    gu[l] = net.g_up[l * nc];  // zero at the top layer
  }

  // Uniform tridiagonal factorization: diag rc+g at the ends, rc+2g in the
  // interior, off-diagonals -g.  cp holds c'_k (negative), inv the reciprocal
  // elimination denominators.
  const auto factor_uniform = [](double rc_l, double g, double* cp, double* inv,
                                 std::size_t m) {
    double den = rc_l + (m > 1 ? g : 0.0);
    inv[0] = 1.0 / den;
    cp[0] = (m > 1 ? -g : 0.0) * inv[0];
    for (std::size_t k = 1; k < m; ++k) {
      const double b = rc_l + (k + 1 < m ? 2.0 * g : g);
      den = b + g * cp[k - 1];  // b - a*cp with a = -g
      inv[k] = 1.0 / den;
      cp[k] = (k + 1 < m ? -g : 0.0) * inv[k];
    }
  };
  for (std::size_t l = 0; l < n_layers; ++l) {
    factor_uniform(rc[l], gx[l], cp_x.data() + l * grid.nx, inv_x.data() + l * grid.nx,
                   grid.nx);
    factor_uniform(rc[l], gy[l], cp_y.data() + l * grid.ny, inv_y.data() + l * grid.ny,
                   grid.ny);
  }

  // Vertical column: per-layer up/down links plus the board leak at layer 0
  // and the (lagged-sink) TIM coupling at the top layer.
  const double g_board = net.g_board[0];
  const double g_sink = net.g_sink[(n_layers - 1) * nc];
  double den = 0.0;
  for (std::size_t l = 0; l < n_layers; ++l) {
    const double gu_l = gu[l];
    const double gd_l = l > 0 ? gu[l - 1] : 0.0;
    double b = rc[l] + gu_l + gd_l;
    if (l == 0) b += g_board;
    if (l + 1 == n_layers) b += g_sink;
    den = (l == 0) ? b : b + gd_l * cp_z[l - 1];  // b - a*cp with a = -gd
    inv_z[l] = 1.0 / den;
    cp_z[l] = -gu_l * inv_z[l];
  }

  sink_rc = spec.sink_heat_capacity / h_new;
  inv_sink_den = 1.0 / (sink_rc + net.sink_g_total);
  h = h_new;
}

void StackModel::adi_substeps(double h, std::size_t n_sub) {
  const StackNetwork& net = *net_;
  adi_.factor(net, spec_, h);
  const auto& grid = spec_.floorplan.grid;
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(grid.nx);
  const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(grid.ny);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const std::size_t n_layers = spec_.layers.size();
  const double ambient_k = spec_.ambient.as_kelvin();
  const double g_board = net.g_board[0];
  const double g_sink = net.g_sink[(n_layers - 1) * n_cells_];

  double* T = field();
  double* S = scratch_.data() + nc;  // Thomas forward-sweep store
  for (std::size_t s = 0; s < n_sub; ++s) {
    // x pass: implicit lateral diffusion along rows.
    if (nx > 1) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(l) * nc;
        thomas_lines(T + base, S + base, adi_.cp_x.data() + l * grid.nx,
                     adi_.inv_x.data() + l * grid.nx, adi_.gx[l], adi_.rc[l], nx, ny, 1, nx);
      }
    }
    // y pass: implicit lateral diffusion along columns.
    if (ny > 1) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(l) * nc;
        thomas_lines(T + base, S + base, adi_.cp_y.data() + l * grid.ny,
                     adi_.inv_y.data() + l * grid.ny, adi_.gy[l], adi_.rc[l], ny, nx, nx, 1);
      }
    }
    // z pass: implicit vertical conduction carrying power, board leak and the
    // lagged-sink TIM coupling.
    thomas_z(T, S, power_w_.data(), adi_.cp_z.data(), adi_.inv_z.data(), adi_.gu.data(),
             adi_.rc.data(), g_board * ambient_k, g_sink * sink_temp_k_,
             static_cast<std::ptrdiff_t>(n_layers), nc);
    // Implicit sink update against the fresh top-layer field.
    double top_sum = 0.0;
    const double* Ttop = T + static_cast<std::ptrdiff_t>(n_layers - 1) * nc;
    for (std::ptrdiff_t c = 0; c < nc; ++c) top_sum += Ttop[c];
    sink_temp_k_ = (adi_.sink_rc * sink_temp_k_ + net.g_sink_ambient * ambient_k +
                    spec_.co_heater_watts + g_sink * top_sum) *
                   adi_.inv_sink_den;
  }
}

void StackModel::step_reference(Time dt) {
  const double total = dt.as_sec();
  const std::size_t n_sub = net_->substeps_for(dt);
  const double h = total / static_cast<double>(n_sub);

  const auto& fp = spec_.floorplan;
  const std::size_t nx = fp.grid.nx;
  const std::size_t ny = fp.grid.ny;
  const std::size_t n_layers = spec_.layers.size();
  const double ambient_k = spec_.ambient.as_kelvin();
  double* T = field();

  std::vector<double> next(n_nodes_);
  for (std::size_t s = 0; s < n_sub; ++s) {
    double sink_flow = net_->g_sink_ambient * (ambient_k - sink_temp_k_) + spec_.co_heater_watts;
    for (std::size_t l = 0; l < n_layers; ++l) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          const std::size_t nidx = node(l, fp.grid.index(x, y));
          const double t = T[nidx];
          double flow = power_w_[nidx];
          if (x + 1 < nx) flow += net_->g_east[nidx] * (T[nidx + 1] - t);
          if (x > 0) flow += net_->g_west[nidx] * (T[nidx - 1] - t);
          if (y + 1 < ny) flow += net_->g_north[nidx] * (T[nidx + nx] - t);
          if (y > 0) flow += net_->g_south[nidx] * (T[nidx - nx] - t);
          if (l + 1 < n_layers) flow += net_->g_up[nidx] * (T[nidx + n_cells_] - t);
          if (l > 0) flow += net_->g_down[nidx] * (T[nidx - n_cells_] - t);
          if (net_->g_sink[nidx] > 0.0) {
            const double f = net_->g_sink[nidx] * (sink_temp_k_ - t);
            flow += f;
            sink_flow -= f;
          }
          flow += net_->g_board[nidx] * (ambient_k - t);
          next[nidx] = t + h * flow / net_->cap[nidx];
        }
      }
    }
    sink_temp_k_ += h * sink_flow / spec_.sink_heat_capacity;
    std::copy(next.begin(), next.end(), T);
  }
  mark_temps_changed();
}

void StackModel::reset_to_ambient() {
  std::fill(temp_.begin(), temp_.end(), spec_.ambient.as_kelvin());
  sink_temp_k_ = spec_.ambient.as_kelvin();
  mark_temps_changed();
}

const std::vector<StackModel::LayerStat>& StackModel::stats() const {
  if (stats_dirty_) {
    const double* T = field();
    const std::size_t n_layers = spec_.layers.size();
    for (std::size_t l = 0; l < n_layers; ++l) {
      const double* base = T + static_cast<std::ptrdiff_t>(l * n_cells_);
      double peak = base[0];
      double acc = 0.0;
      for (std::size_t c = 0; c < n_cells_; ++c) {
        peak = std::max(peak, base[c]);
        acc += base[c];
      }
      stats_[l] = LayerStat{peak, acc / static_cast<double>(n_cells_)};
    }
    stats_dirty_ = false;
  }
  return stats_;
}

Celsius StackModel::cell_temp(std::size_t layer, std::size_t cell) const {
  COOLPIM_ASSERT(layer < spec_.layers.size() && cell < n_cells_);
  return Celsius::from_kelvin(field()[layer * n_cells_ + cell]);
}

Celsius StackModel::layer_peak(std::size_t layer) const {
  COOLPIM_ASSERT(layer < spec_.layers.size());
  return Celsius::from_kelvin(stats()[layer].peak_k);
}

Celsius StackModel::layer_mean(std::size_t layer) const {
  COOLPIM_ASSERT(layer < spec_.layers.size());
  return Celsius::from_kelvin(stats()[layer].mean_k);
}

Celsius StackModel::peak_over_layers(std::size_t first, std::size_t last) const {
  COOLPIM_ASSERT(first <= last && last < spec_.layers.size());
  const auto& st = stats();
  double peak = -1e9;
  for (std::size_t l = first; l <= last; ++l) {
    peak = std::max(peak, Celsius::from_kelvin(st[l].peak_k).value());
  }
  return Celsius{peak};
}

Celsius StackModel::sink_temp() const { return Celsius::from_kelvin(sink_temp_k_); }

Celsius StackModel::surface_temp() const {
  // The camera sees the package lid: close to the top-die mean, pulled a few
  // degrees toward the sink by the lid/TIM gradient.
  const double top_mean = layer_mean(spec_.layers.size() - 1).value();
  const double sink = sink_temp().value();
  return Celsius{0.7 * top_mean + 0.3 * sink};
}

std::vector<double> StackModel::layer_field(std::size_t layer) const {
  COOLPIM_ASSERT(layer < spec_.layers.size());
  std::vector<double> out(n_cells_);
  const double* T = field();
  for (std::size_t c = 0; c < n_cells_; ++c) {
    out[c] = Celsius::from_kelvin(T[layer * n_cells_ + c]).value();
  }
  return out;
}

}  // namespace coolpim::thermal
