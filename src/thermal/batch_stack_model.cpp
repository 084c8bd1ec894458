#include "thermal/batch_stack_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/names.hpp"

namespace coolpim::thermal {

namespace {

// Same runtime-dispatch guard as stack_model.cpp: AVX2 widens the lane loop
// to four doubles without FMA, so every lane still performs the exact IEEE
// mul/add/div sequence of the default clone.
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define COOLPIM_STENCIL_CLONES __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef COOLPIM_STENCIL_CLONES
#define COOLPIM_STENCIL_CLONES
#endif

/// One explicit substep over the nodes below the top layer, all lanes at
/// once.  The conductances are node-indexed (shared by every lane) and load
/// once per node; the inner loop runs over the contiguous lane dimension, so
/// the vectorizer stripes *lanes* across the vector registers.  Per lane the
/// term order is exactly StackModel::step_reference(): east, west, north,
/// south, up, down, board -- the sink term is omitted because g_sink is zero
/// below the top layer (same bit-exactness argument as the scalar fast path).
COOLPIM_STENCIL_CLONES
void batch_substep_lower(const double* __restrict T, double* __restrict N,
                         const double* __restrict pw, const double* __restrict amb,
                         const double* __restrict ge, const double* __restrict gn,
                         const double* __restrict gu, const double* __restrict gb,
                         const double* __restrict cap, std::ptrdiff_t begin,
                         std::ptrdiff_t end, std::ptrdiff_t nx, std::ptrdiff_t nc,
                         std::ptrdiff_t L, double h) {
  for (std::ptrdiff_t i = begin; i < end; ++i) {
    const double gei = ge[i];
    const double gwi = ge[i - 1];
    const double gni = gn[i];
    const double gsi = gn[i - nx];
    const double gui = gu[i];
    const double gdi = gu[i - nc];
    const double gbi = gb[i];
    const double ci = cap[i];
    const double* Ti = T + i * L;
    const double* pwi = pw + i * L;
    double* Ni = N + i * L;
    for (std::ptrdiff_t v = 0; v < L; ++v) {
      const double t = Ti[v];
      double flow = pwi[v];
      flow += gei * (Ti[L + v] - t);
      flow += gwi * (Ti[v - L] - t);
      flow += gni * (Ti[nx * L + v] - t);
      flow += gsi * (Ti[v - nx * L] - t);
      flow += gui * (Ti[nc * L + v] - t);
      flow += gdi * (Ti[v - nc * L] - t);
      flow += gbi * (amb[v] - t);
      Ni[v] = t + h * flow / ci;
    }
  }
}

/// Top-layer substep: the full stencil plus the per-lane TIM->sink exchange,
/// accumulated into sink_flow[lane] in node order (the same reduction order
/// as the scalar sweep, so each lane's sink trajectory is bit-identical).
COOLPIM_STENCIL_CLONES
void batch_substep_top(const double* __restrict T, double* __restrict N,
                       const double* __restrict pw, const double* __restrict amb,
                       const double* __restrict ge, const double* __restrict gn,
                       const double* __restrict gu, const double* __restrict gsk,
                       const double* __restrict gb, const double* __restrict cap,
                       const double* __restrict sink_t, double* __restrict sink_flow,
                       std::ptrdiff_t top, std::ptrdiff_t n, std::ptrdiff_t nx,
                       std::ptrdiff_t nc, std::ptrdiff_t L, double h) {
  for (std::ptrdiff_t i = top; i < n; ++i) {
    const double gei = ge[i];
    const double gwi = ge[i - 1];
    const double gni = gn[i];
    const double gsi = gn[i - nx];
    const double gui = gu[i];
    const double gdi = gu[i - nc];
    const double gski = gsk[i];
    const double gbi = gb[i];
    const double ci = cap[i];
    const double* Ti = T + i * L;
    const double* pwi = pw + i * L;
    double* Ni = N + i * L;
    for (std::ptrdiff_t v = 0; v < L; ++v) {
      const double t = Ti[v];
      double flow = pwi[v];
      flow += gei * (Ti[L + v] - t);
      flow += gwi * (Ti[v - L] - t);
      flow += gni * (Ti[nx * L + v] - t);
      flow += gsi * (Ti[v - nx * L] - t);
      flow += gui * (Ti[nc * L + v] - t);
      flow += gdi * (Ti[v - nc * L] - t);
      const double f = gski * (sink_t[v] - t);
      flow += f;
      sink_flow[v] -= f;
      flow += gbi * (amb[v] - t);
      Ni[v] = t + h * flow / ci;
    }
  }
}

/// Batched Thomas solve of one homogeneous implicit diffusion line (x or y
/// pass of the ADI split): (C/h) T* - g*(neighbour coupling) = (C/h) T^n.
/// `cp`/`inv` are the precomputed elimination coefficients, `stride` is the
/// lane-units distance between adjacent nodes on the line, and S is the
/// forward-sweep store (the scratch field at the same offsets as T).
COOLPIM_STENCIL_CLONES
void batch_thomas_uniform(double* __restrict T, double* __restrict S,
                          const double* __restrict cp, const double* __restrict inv,
                          double g, double rc, std::ptrdiff_t m, std::ptrdiff_t stride,
                          std::ptrdiff_t L) {
  const double i0 = inv[0];
  for (std::ptrdiff_t v = 0; v < L; ++v) S[v] = rc * T[v] * i0;
  for (std::ptrdiff_t k = 1; k < m; ++k) {
    const double* Tk = T + k * stride;
    const double* Sp = S + (k - 1) * stride;
    double* Sk = S + k * stride;
    const double ik = inv[k];
    for (std::ptrdiff_t v = 0; v < L; ++v) Sk[v] = (rc * Tk[v] + g * Sp[v]) * ik;
  }
  {
    double* Tl = T + (m - 1) * stride;
    const double* Sl = S + (m - 1) * stride;
    for (std::ptrdiff_t v = 0; v < L; ++v) Tl[v] = Sl[v];
  }
  for (std::ptrdiff_t k = m - 2; k >= 0; --k) {
    double* Tk = T + k * stride;
    const double* Sk = S + k * stride;
    const double* Tn = T + (k + 1) * stride;
    const double cpk = cp[k];
    for (std::ptrdiff_t v = 0; v < L; ++v) Tk[v] = Sk[v] - cpk * Tn[v];
  }
}

/// Batched Thomas solve of one vertical column (z pass): carries the power
/// sources, the board leak (layer 0) and the TIM coupling against the lagged
/// per-lane sink temperature (top layer).  gup[l] is the layer->layer+1 link,
/// rc[l] = cap_l/h.
COOLPIM_STENCIL_CLONES
void batch_thomas_column(double* __restrict T, double* __restrict S,
                         const double* __restrict pw, const double* __restrict amb,
                         const double* __restrict sink_t, const double* __restrict cp,
                         const double* __restrict inv, const double* __restrict gup,
                         const double* __restrict rc, double g_board, double g_sink,
                         std::ptrdiff_t m, std::ptrdiff_t stride, std::ptrdiff_t L) {
  {
    const double i0 = inv[0];
    const double rc0 = rc[0];
    const double g_top = (m == 1) ? g_sink : 0.0;
    for (std::ptrdiff_t v = 0; v < L; ++v) {
      const double d = rc0 * T[v] + pw[v] + g_board * amb[v] + g_top * sink_t[v];
      S[v] = d * i0;
    }
  }
  for (std::ptrdiff_t k = 1; k < m; ++k) {
    const double* Tk = T + k * stride;
    const double* pwk = pw + k * stride;
    const double* Sp = S + (k - 1) * stride;
    double* Sk = S + k * stride;
    const double gd = gup[k - 1];
    const double ik = inv[k];
    const double rck = rc[k];
    const double g_top = (k == m - 1) ? g_sink : 0.0;
    for (std::ptrdiff_t v = 0; v < L; ++v) {
      const double d = rck * Tk[v] + pwk[v] + g_top * sink_t[v];
      Sk[v] = (d + gd * Sp[v]) * ik;
    }
  }
  {
    double* Tl = T + (m - 1) * stride;
    const double* Sl = S + (m - 1) * stride;
    for (std::ptrdiff_t v = 0; v < L; ++v) Tl[v] = Sl[v];
  }
  for (std::ptrdiff_t k = m - 2; k >= 0; --k) {
    double* Tk = T + k * stride;
    const double* Sk = S + k * stride;
    const double* Tn = T + (k + 1) * stride;
    const double cpk = cp[k];
    for (std::ptrdiff_t v = 0; v < L; ++v) Tk[v] = Sk[v] - cpk * Tn[v];
  }
}

}  // namespace

BatchStackModel::BatchStackModel(StackSpec spec, std::size_t lanes, BatchOptions opt)
    : spec_{std::move(spec)}, opt_{opt}, lanes_{lanes} {
  spec_.validate();
  COOLPIM_REQUIRE(lanes_ >= 1, "batch model needs at least one lane");
  COOLPIM_REQUIRE(opt_.adi_dt_factor >= 1.0, "adi_dt_factor must be >= 1");
  net_ = StackNetwork::build(spec_);

  const double amb_k = spec_.ambient.as_kelvin();
  padded_ = (2 * net_.n_cells + net_.n_nodes) * lanes_;
  ambient_k_.assign(lanes_, amb_k);
  fields_.assign(half_stride() + padded_, amb_k);
  power_w_.assign(net_.n_nodes * lanes_, 0.0);
  sink_temp_k_.assign(lanes_, amb_k);
  sink_flow_.assign(lanes_, 0.0);
  stats_.resize(layer_count() * lanes_);

  const std::size_t n_layers = layer_count();
  const auto& grid = spec_.floorplan.grid;
  adi_.cp_x.assign(n_layers * grid.nx, 0.0);
  adi_.inv_x.assign(n_layers * grid.nx, 0.0);
  adi_.cp_y.assign(n_layers * grid.ny, 0.0);
  adi_.inv_y.assign(n_layers * grid.ny, 0.0);
  adi_.cp_z.assign(n_layers, 0.0);
  adi_.inv_z.assign(n_layers, 0.0);
  adi_.rc.assign(n_layers, 0.0);
  adi_.gx.assign(n_layers, 0.0);
  adi_.gy.assign(n_layers, 0.0);
  adi_.gu.assign(n_layers, 0.0);
}

void BatchStackModel::set_layer_power(std::size_t lane, std::size_t layer,
                                      const PowerMap& power) {
  COOLPIM_ASSERT(lane < lanes_ && layer < layer_count());
  COOLPIM_ASSERT(power.cells().size() == net_.n_cells);
  const std::size_t base = layer * net_.n_cells;
  for (std::size_t c = 0; c < net_.n_cells; ++c) {
    power_w_[(base + c) * lanes_ + lane] = power.at(c);
  }
}

void BatchStackModel::set_layer_power_uniform(std::size_t lane, std::size_t layer,
                                              double total_watts) {
  COOLPIM_ASSERT(lane < lanes_ && layer < layer_count());
  const double per_cell = total_watts / static_cast<double>(net_.n_cells);
  const std::size_t base = layer * net_.n_cells;
  for (std::size_t c = 0; c < net_.n_cells; ++c) {
    power_w_[(base + c) * lanes_ + lane] = per_cell;
  }
}

void BatchStackModel::clear_power() { std::fill(power_w_.begin(), power_w_.end(), 0.0); }

void BatchStackModel::set_lane_ambient(std::size_t lane, Celsius ambient) {
  COOLPIM_ASSERT(lane < lanes_);
  const double amb_k = ambient.as_kelvin();
  ambient_k_[lane] = amb_k;
  // Keep the ghost blocks at lane ambient in both halves.  The ghosts only
  // ever multiply zero conductances (the arithmetic cannot see them), but a
  // consistent field makes debug dumps honest.
  const std::size_t nc = net_.n_cells;
  const std::size_t tail = (nc + net_.n_nodes) * lanes_;
  for (double* half : {live(), spare()}) {
    for (std::size_t g = 0; g < nc; ++g) {
      half[g * lanes_ + lane] = amb_k;
      half[tail + g * lanes_ + lane] = amb_k;
    }
  }
}

Celsius BatchStackModel::lane_ambient(std::size_t lane) const {
  COOLPIM_ASSERT(lane < lanes_);
  return Celsius::from_kelvin(ambient_k_[lane]);
}

std::size_t BatchStackModel::substeps_for(Time dt) const {
  if (opt_.kernel == TransientKernel::kExplicit) return net_.substeps_for(dt);
  COOLPIM_REQUIRE(dt > Time::zero(), "transient step must be positive");
  const double n =
      std::ceil(dt.as_sec() / (net_.stable_dt.as_sec() * opt_.adi_dt_factor));
  COOLPIM_REQUIRE(n <= static_cast<double>(kMaxTransientSubsteps),
                  "transient step needs " + std::to_string(n) +
                      " ADI substeps (> kMaxTransientSubsteps); split the step");
  return n < 1.0 ? std::size_t{1} : static_cast<std::size_t>(n);
}

void BatchStackModel::step(Time dt) {
  const std::size_t n_sub = substeps_for(dt);
  const double h = dt.as_sec() / static_cast<double>(n_sub);
  if (opt_.kernel == TransientKernel::kExplicit) {
    step_explicit(h, n_sub);
    if (c_sweeps_ != nullptr) c_sweeps_->add(n_sub);
  } else {
    refactor_adi(h);
    step_adi(n_sub);
    if (c_adi_ != nullptr) c_adi_->add(n_sub);
  }
  if (c_lanes_ != nullptr) c_lanes_->add(lanes_);
  mark_temps_changed();
}

void BatchStackModel::step_explicit(double h, std::size_t n_sub) {
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.nx);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(net_.n_cells);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(net_.n_nodes);
  const std::ptrdiff_t L = static_cast<std::ptrdiff_t>(lanes_);
  const std::ptrdiff_t top = n - nc;
  const double* pw = power_w_.data();
  const double* amb = ambient_k_.data();
  const double* ge = net_.g_east_pad.data() + nc;  // ge[i-1] is the west link
  const double* gn = net_.g_north_pad.data() + nc;
  const double* gu = net_.g_up_pad.data() + nc;

  for (std::size_t s = 0; s < n_sub; ++s) {
    const double* T = live() + nc * L;
    double* N = spare() + nc * L;
    // Per-lane sink seed: the scalar sweep's exact expression, per lane.
    for (std::size_t v = 0; v < lanes_; ++v) {
      sink_flow_[v] = net_.g_sink_ambient * (amb[v] - sink_temp_k_[v]) + spec_.co_heater_watts;
    }
    batch_substep_lower(T, N, pw, amb, ge, gn, gu, net_.g_board.data(), net_.cap.data(), 0,
                        top, nx, nc, L, h);
    batch_substep_top(T, N, pw, amb, ge, gn, gu, net_.g_sink.data(), net_.g_board.data(),
                      net_.cap.data(), sink_temp_k_.data(), sink_flow_.data(), top, n, nx,
                      nc, L, h);
    for (std::size_t v = 0; v < lanes_; ++v) {
      sink_temp_k_[v] += h * sink_flow_[v] / spec_.sink_heat_capacity;
    }
    live_half_ = 1 - live_half_;
  }
}

void BatchStackModel::refactor_adi(double h) {
  if (adi_.h == h) return;
  const std::size_t n_layers = layer_count();
  const auto& grid = spec_.floorplan.grid;
  const std::size_t nc = net_.n_cells;

  // Per-layer uniform coefficients: cell geometry and material are uniform
  // within a layer, so one line factorization per (layer, direction) covers
  // every row, column and lane.
  for (std::size_t l = 0; l < n_layers; ++l) {
    adi_.rc[l] = net_.cap[l * nc] / h;
    adi_.gx[l] = grid.nx > 1 ? net_.g_east[l * nc] : 0.0;
    adi_.gy[l] = grid.ny > 1 ? net_.g_north[l * nc] : 0.0;
    adi_.gu[l] = net_.g_up[l * nc];  // zero at the top layer
  }

  // Uniform tridiagonal factorization: diag rc+g at the ends, rc+2g in the
  // interior, off-diagonals -g.  cp holds c'_k (negative), inv the reciprocal
  // elimination denominators.
  const auto factor_uniform = [](double rc, double g, double* cp, double* inv,
                                 std::size_t m) {
    double den = rc + (m > 1 ? g : 0.0);
    inv[0] = 1.0 / den;
    cp[0] = (m > 1 ? -g : 0.0) * inv[0];
    for (std::size_t k = 1; k < m; ++k) {
      const double b = rc + (k + 1 < m ? 2.0 * g : g);
      den = b + g * cp[k - 1];  // b - a*cp with a = -g
      inv[k] = 1.0 / den;
      cp[k] = (k + 1 < m ? -g : 0.0) * inv[k];
    }
  };
  for (std::size_t l = 0; l < n_layers; ++l) {
    factor_uniform(adi_.rc[l], adi_.gx[l], adi_.cp_x.data() + l * grid.nx,
                   adi_.inv_x.data() + l * grid.nx, grid.nx);
    factor_uniform(adi_.rc[l], adi_.gy[l], adi_.cp_y.data() + l * grid.ny,
                   adi_.inv_y.data() + l * grid.ny, grid.ny);
  }

  // Vertical column: per-layer up/down links plus the board leak at layer 0
  // and the (lagged-sink) TIM coupling at the top layer.
  const double g_board = net_.g_board[0];
  const double g_sink = net_.g_sink[(n_layers - 1) * nc];
  double den = 0.0;
  for (std::size_t l = 0; l < n_layers; ++l) {
    const double gu_l = adi_.gu[l];
    const double gd_l = l > 0 ? adi_.gu[l - 1] : 0.0;
    double b = adi_.rc[l] + gu_l + gd_l;
    if (l == 0) b += g_board;
    if (l + 1 == n_layers) b += g_sink;
    den = (l == 0) ? b : b + gd_l * adi_.cp_z[l - 1];  // b - a*cp with a = -gd
    adi_.inv_z[l] = 1.0 / den;
    adi_.cp_z[l] = -gu_l * adi_.inv_z[l];
  }

  adi_.sink_rc = spec_.sink_heat_capacity / h;
  adi_.inv_sink_den = 1.0 / (adi_.sink_rc + net_.sink_g_total);
  adi_.h = h;
}

void BatchStackModel::step_adi(std::size_t n_sub) {
  const auto& grid = spec_.floorplan.grid;
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(grid.nx);
  const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(grid.ny);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(net_.n_cells);
  const std::ptrdiff_t L = static_cast<std::ptrdiff_t>(lanes_);
  const std::size_t n_layers = layer_count();
  const double g_board = net_.g_board[0];
  const double g_sink = net_.g_sink[(n_layers - 1) * net_.n_cells];

  double* T = field();
  double* S = spare() + nc * L;  // Thomas forward-sweep store
  const double* pw = power_w_.data();
  const double* amb = ambient_k_.data();

  for (std::size_t s = 0; s < n_sub; ++s) {
    // x pass: implicit lateral diffusion along rows.
    if (nx > 1) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        const double* cp = adi_.cp_x.data() + l * grid.nx;
        const double* inv = adi_.inv_x.data() + l * grid.nx;
        for (std::ptrdiff_t y = 0; y < ny; ++y) {
          const std::ptrdiff_t base = (static_cast<std::ptrdiff_t>(l) * nc + y * nx) * L;
          batch_thomas_uniform(T + base, S + base, cp, inv, adi_.gx[l], adi_.rc[l], nx, L,
                               L);
        }
      }
    }
    // y pass: implicit lateral diffusion along columns.
    if (ny > 1) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        const double* cp = adi_.cp_y.data() + l * grid.ny;
        const double* inv = adi_.inv_y.data() + l * grid.ny;
        for (std::ptrdiff_t x = 0; x < nx; ++x) {
          const std::ptrdiff_t base = (static_cast<std::ptrdiff_t>(l) * nc + x) * L;
          batch_thomas_uniform(T + base, S + base, cp, inv, adi_.gy[l], adi_.rc[l], ny,
                               nx * L, L);
        }
      }
    }
    // z pass: implicit vertical conduction carrying power, board leak and the
    // lagged-sink TIM coupling.
    for (std::ptrdiff_t c = 0; c < nc; ++c) {
      const std::ptrdiff_t base = c * L;
      batch_thomas_column(T + base, S + base, pw + base, amb, sink_temp_k_.data(),
                          adi_.cp_z.data(), adi_.inv_z.data(), adi_.gu.data(),
                          adi_.rc.data(), g_board, g_sink,
                          static_cast<std::ptrdiff_t>(n_layers), nc * L, L);
    }
    // Implicit sink update against the fresh top-layer field.
    std::fill(sink_flow_.begin(), sink_flow_.end(), 0.0);
    const double* Ttop = T + static_cast<std::ptrdiff_t>(n_layers - 1) * nc * L;
    for (std::ptrdiff_t c = 0; c < nc; ++c) {
      const double* Tc = Ttop + c * L;
      for (std::ptrdiff_t v = 0; v < L; ++v) sink_flow_[static_cast<std::size_t>(v)] += Tc[v];
    }
    for (std::size_t v = 0; v < lanes_; ++v) {
      sink_temp_k_[v] = (adi_.sink_rc * sink_temp_k_[v] +
                         net_.g_sink_ambient * ambient_k_[v] + spec_.co_heater_watts +
                         g_sink * sink_flow_[v]) *
                        adi_.inv_sink_den;
    }
  }
}

void BatchStackModel::reset_to_ambient() {
  // Both halves, ghost blocks included: rows of `lanes_` doubles.
  for (double* half : {live(), spare()}) {
    for (std::size_t i = 0; i < padded_; i += lanes_) {
      std::copy(ambient_k_.begin(), ambient_k_.end(), half + i);
    }
  }
  for (std::size_t v = 0; v < lanes_; ++v) sink_temp_k_[v] = ambient_k_[v];
  mark_temps_changed();
}

const std::vector<BatchStackModel::LaneLayerStat>& BatchStackModel::stats() const {
  if (stats_dirty_) {
    const double* T = field();
    const std::size_t n_layers = layer_count();
    const std::size_t nc = net_.n_cells;
    // Per lane this is the scalar StackModel reduction verbatim: peak seeded
    // from cell 0, mean accumulated in cell order then divided once.
    for (std::size_t l = 0; l < n_layers; ++l) {
      const double* base = T + static_cast<std::ptrdiff_t>(l * nc * lanes_);
      LaneLayerStat* out = stats_.data() + l * lanes_;
      for (std::size_t v = 0; v < lanes_; ++v) out[v] = LaneLayerStat{base[v], 0.0};
      for (std::size_t c = 0; c < nc; ++c) {
        const double* Tc = base + c * lanes_;
        for (std::size_t v = 0; v < lanes_; ++v) {
          out[v].peak_k = std::max(out[v].peak_k, Tc[v]);
          out[v].mean_k += Tc[v];
        }
      }
      for (std::size_t v = 0; v < lanes_; ++v) {
        out[v].mean_k /= static_cast<double>(nc);
      }
    }
    stats_dirty_ = false;
  }
  return stats_;
}

Celsius BatchStackModel::cell_temp(std::size_t lane, std::size_t layer,
                                   std::size_t cell) const {
  COOLPIM_ASSERT(lane < lanes_ && layer < layer_count() && cell < net_.n_cells);
  return Celsius::from_kelvin(field()[(layer * net_.n_cells + cell) * lanes_ + lane]);
}

Celsius BatchStackModel::layer_peak(std::size_t lane, std::size_t layer) const {
  COOLPIM_ASSERT(lane < lanes_ && layer < layer_count());
  return Celsius::from_kelvin(stats()[layer * lanes_ + lane].peak_k);
}

Celsius BatchStackModel::layer_mean(std::size_t lane, std::size_t layer) const {
  COOLPIM_ASSERT(lane < lanes_ && layer < layer_count());
  return Celsius::from_kelvin(stats()[layer * lanes_ + lane].mean_k);
}

Celsius BatchStackModel::peak_over_layers(std::size_t lane, std::size_t first,
                                          std::size_t last) const {
  COOLPIM_ASSERT(lane < lanes_ && first <= last && last < layer_count());
  const auto& st = stats();
  double peak = -1e9;
  for (std::size_t l = first; l <= last; ++l) {
    peak = std::max(peak, Celsius::from_kelvin(st[l * lanes_ + lane].peak_k).value());
  }
  return Celsius{peak};
}

Celsius BatchStackModel::sink_temp(std::size_t lane) const {
  COOLPIM_ASSERT(lane < lanes_);
  return Celsius::from_kelvin(sink_temp_k_[lane]);
}

void BatchStackModel::set_counters(obs::CounterRegistry* counters) {
  if (counters == nullptr) {
    c_lanes_ = c_sweeps_ = c_adi_ = nullptr;
    return;
  }
  c_lanes_ = &counters->counter(obs::names::kThermalBatchLanes);
  c_sweeps_ = &counters->counter(obs::names::kThermalBatchSweeps);
  c_adi_ = &counters->counter(obs::names::kThermalBatchAdiSolves);
}

}  // namespace coolpim::thermal
