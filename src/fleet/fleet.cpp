#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "obs/names.hpp"
#include "runner/pool.hpp"
#include "thermal/batch_stack_model.hpp"

namespace coolpim::fleet {

namespace {

// Stream salts: distinct deterministic sub-streams of the fleet key.
constexpr std::uint64_t kArrivalSalt = 0xf1ee7a11'0a55a1edULL;
constexpr std::uint64_t kNodeSalt = 0x9e3779b97f4a7c15ULL;

/// Nearest-rank percentile over a sorted sample (q in [0, 1]).
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

}  // namespace

void FleetConfig::validate() const {
  COOLPIM_REQUIRE(nodes >= 1 && nodes <= 4096, "fleet nodes must be in [1, 4096]");
  COOLPIM_REQUIRE(!profiles.empty(), "fleet needs at least one service profile");
  COOLPIM_REQUIRE(mix.empty() || mix.size() == profiles.size(),
                  "mix weight count must match profile count");
  COOLPIM_REQUIRE(balancer_known(balancer),
                  "unknown balancer '" + balancer + "' (registered: " + balancer_names() + ")");
  COOLPIM_REQUIRE(trace_path.empty() ? arrival_rate_per_s > 0.0 : true,
                  "arrival rate must be positive");
  COOLPIM_REQUIRE(duration_ms > 0.0, "fleet duration must be positive");
  COOLPIM_REQUIRE(epoch_ms > 0.0 && epoch_ms <= duration_ms,
                  "fleet epoch must be in (0, duration]");
  COOLPIM_REQUIRE(rack_ambient_spread_c >= 0.0, "rack ambient spread must be non-negative");
  for (const auto& p : profiles) {
    COOLPIM_REQUIRE(p.service_ms > 0.0, "profile '" + p.workload + "': service time must be > 0");
    COOLPIM_REQUIRE(p.heat_c >= 0.0, "profile '" + p.workload + "': heat must be >= 0");
  }
  if (thermal == ThermalFidelity::kGrid) {
    COOLPIM_REQUIRE(grid.dram_dies >= 1 && grid.dram_dies <= 64,
                    "grid thermal: dram dies must be in [1, 64]");
    COOLPIM_REQUIRE(grid.grid_nx >= 1 && grid.grid_nx <= 64 && grid.grid_ny >= 1 &&
                        grid.grid_ny <= 64,
                    "grid thermal: grid must be in [1, 64] per axis");
    COOLPIM_REQUIRE(grid.watts_per_c > 0.0, "grid thermal: watts per degC must be positive");
    COOLPIM_REQUIRE(grid.heat_capacity_scale > 0.0,
                    "grid thermal: heat-capacity scale must be positive");
    COOLPIM_REQUIRE(grid.adi_dt_factor >= 1.0, "grid thermal: ADI dt factor must be >= 1");
  }
}

std::uint64_t fleet_key(const FleetConfig& cfg) {
  HashStream h;
  h.add(std::string_view{"fleet/1"});
  h.add(static_cast<std::uint64_t>(cfg.nodes));
  cfg.node.feed(h);
  h.add(cfg.rack_ambient_spread_c);
  h.add(static_cast<std::uint64_t>(cfg.profiles.size()));
  for (const auto& p : cfg.profiles) p.feed(h);
  h.add(static_cast<std::uint64_t>(cfg.mix.size()));
  for (const double w : cfg.mix) h.add(w);
  h.add(std::string_view{cfg.balancer});
  cfg.balancer_cfg.feed(h);
  h.add(cfg.arrival_rate_per_s);
  h.add(cfg.duration_ms);
  h.add(std::string_view{cfg.trace_path});
  h.add(cfg.epoch_ms);
  h.add(cfg.max_defer_epochs);
  h.add(cfg.seed);
  // Grid-fidelity fields enter the key only when the mode is on, so every
  // pre-existing kRc key (and its goldens) is untouched -- the same gating
  // the fault config uses.
  if (cfg.thermal == ThermalFidelity::kGrid) {
    h.add(std::string_view{"fleet/grid-thermal"});
    cfg.grid.feed(h);
  }
  // jobs, observer and counter_mark_every are deliberately excluded: they
  // must never change what the fleet computes.
  return h.digest();
}

std::string FleetResult::node_summary_csv() const {
  std::ostringstream os;
  os.precision(17);  // full double round-trip: byte-stable iff bit-identical
  os << "node,served,warnings,peak_c,final_c,busy_ms,served_pim_ops\n";
  for (const auto& n : nodes) {
    os << n.index << ',' << n.served << ',' << n.warnings << ',' << n.peak_c << ','
       << n.final_c << ',' << n.busy_ms << ',' << n.served_pim_ops << '\n';
  }
  return os.str();
}

std::vector<ServiceProfile> profiles_from_runs(const std::vector<sys::RunResult>& runs,
                                               double idle_c) {
  std::vector<ServiceProfile> out;
  out.reserve(runs.size());
  for (const auto& r : runs) {
    ServiceProfile p;
    p.workload = r.workload;
    p.service_ms = r.exec_time.as_ms();
    p.heat_c = std::max(0.0, r.peak_dram_temp.value() - idle_c);
    p.pim_ops = static_cast<double>(r.pim_ops);
    out.push_back(std::move(p));
  }
  return out;
}

FleetResult run_fleet(const FleetConfig& cfg) {
  cfg.validate();
  const std::uint64_t key = fleet_key(cfg);

  // Nodes, rack gradient baked into each ambient, per-node seeds from the key.
  std::vector<Node> nodes;
  nodes.reserve(cfg.nodes);
  std::vector<double> node_ambient_c(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    NodeConfig nc = cfg.node;
    if (cfg.nodes > 1) {
      nc.ambient_c += cfg.rack_ambient_spread_c * static_cast<double>(i) /
                      static_cast<double>(cfg.nodes - 1);
    }
    node_ambient_c[i] = nc.ambient_c;
    const std::uint64_t node_seed = mix_seed(key ^ (kNodeSalt * (i + 1)));
    nodes.emplace_back(i, nc, cfg.profiles, node_seed);
  }

  // Grid fidelity: the whole rack is one BatchStackModel -- node i is lane i,
  // a StackModel over the rack's shared network whose ambient carries the
  // rack gradient.  serve() and the thermal advance become separate phases:
  // nodes serve in parallel, then the rack steps every lane once per epoch.
  std::unique_ptr<thermal::BatchStackModel> grid;
  std::size_t grid_top_layer = 0;
  std::vector<double> heat_weighted_ms;
  if (cfg.thermal == ThermalFidelity::kGrid) {
    thermal::StackSpec spec =
        thermal::hbm_stack_spec(cfg.grid.dram_dies, cfg.grid.grid_nx, cfg.grid.grid_ny);
    for (auto& layer : spec.layers) {
      layer.volumetric_heat_capacity *= cfg.grid.heat_capacity_scale;
    }
    spec.sink_heat_capacity *= cfg.grid.heat_capacity_scale;
    spec.ambient = Celsius{cfg.node.ambient_c};
    thermal::BatchOptions opt;
    opt.kernel = cfg.grid.use_adi ? thermal::TransientKernel::kAdi
                                  : thermal::TransientKernel::kExplicit;
    opt.adi_dt_factor = cfg.grid.adi_dt_factor;
    grid = std::make_unique<thermal::BatchStackModel>(spec, cfg.nodes, opt);
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      grid->set_lane_ambient(i, Celsius{node_ambient_c[i]});
    }
    grid->reset_to_ambient();
    if (cfg.observer != nullptr) grid->set_counters(&cfg.observer->counters);
    grid_top_layer = grid->layer_count() - 1;
    heat_weighted_ms.resize(cfg.nodes);
  }

  std::unique_ptr<ArrivalProcess> arrivals;
  if (!cfg.trace_path.empty()) {
    arrivals = std::make_unique<TraceArrivals>(load_trace(cfg.trace_path, cfg.profiles));
  } else {
    arrivals = std::make_unique<PoissonArrivals>(cfg.arrival_rate_per_s, cfg.duration_ms,
                                                 cfg.profiles.size(), cfg.mix,
                                                 mix_seed(key ^ kArrivalSalt));
  }

  std::unique_ptr<Balancer> balancer = make_balancer(cfg.balancer, cfg.balancer_cfg);

  const unsigned jobs = std::min<unsigned>(
      cfg.jobs > 0 ? cfg.jobs : runner::Pool::default_jobs(),
      static_cast<unsigned>(cfg.nodes));
  runner::Pool pool{jobs};

  obs::Trace trace =
      cfg.observer != nullptr ? cfg.observer->trace() : obs::Trace{};

  FleetResult result;
  std::vector<Request> deferred, still_deferred;
  std::optional<Arrival> pending = arrivals->next();
  std::uint64_t next_id = 0;

  const auto epochs =
      static_cast<std::uint64_t>(std::ceil(cfg.duration_ms / cfg.epoch_ms - 1e-9));
  std::vector<NodeView> views(cfg.nodes);

  for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
    const double now_ms = static_cast<double>(epoch) * cfg.epoch_ms;

    // ---- Dispatch (sequential): everything that arrived before this epoch
    // boundary, deferred requests first so starvation is bounded.
    for (std::size_t i = 0; i < cfg.nodes; ++i) views[i] = nodes[i].view();
    auto place = [&](Request req) {
      const std::size_t pick = balancer->pick(views, req);
      if (pick != kDefer && nodes[pick].enqueue(req)) {
        ++views[pick].queue_len;
        views[pick].admitting = views[pick].queue_len < views[pick].queue_capacity &&
                                views[pick].temp_c < cfg.node.admission_limit_c;
        return;
      }
      ++req.defers;
      ++result.deferrals;
      if (req.defers > cfg.max_defer_epochs) {
        ++result.shed;
        trace.instant(Time::ms(now_ms), obs::names::kCatFleet, "shed",
                      {{"profile", cfg.profiles[req.profile].workload},
                       {"waited_ms", now_ms - req.arrival_ms}});
      } else {
        still_deferred.push_back(req);
      }
    };
    for (const Request& req : deferred) place(req);
    deferred.clear();
    while (pending && pending->time_ms < now_ms) {
      ++result.arrived;
      place(Request{next_id++, pending->profile, pending->time_ms, 0});
      pending = arrivals->next();
    }
    std::swap(deferred, still_deferred);

    // ---- Step (parallel): nodes are independent within an epoch, so the
    // shard over the pool is bit-identical at any jobs count.  Under grid
    // fidelity only serve() fans out; the rack's thermal advance steps each
    // lane on this thread, so its arithmetic never depends on jobs either.
    if (grid != nullptr) {
      pool.parallel_for(
          cfg.nodes,
          [&](std::size_t i) { heat_weighted_ms[i] = nodes[i].serve(now_ms, cfg.epoch_ms); },
          /*grain=*/0);
      for (std::size_t i = 0; i < cfg.nodes; ++i) {
        grid->set_layer_power_uniform(
            i, 0, cfg.grid.watts_per_c * heat_weighted_ms[i] / cfg.epoch_ms);
      }
      grid->step(Time::ms(cfg.epoch_ms));
      for (std::size_t i = 0; i < cfg.nodes; ++i) {
        // Same peak-DRAM temperature convention as the RC model: DRAM dies
        // are layers 1..top (layer 0 is logic).
        nodes[i].finish_epoch(grid->peak_over_layers(i, 1, grid_top_layer).value());
      }
    } else {
      pool.parallel_for(
          cfg.nodes, [&](std::size_t i) { nodes[i].step(now_ms, cfg.epoch_ms); },
          /*grain=*/0);
    }

    if (cfg.observer != nullptr && cfg.counter_mark_every > 0 &&
        (epoch + 1) % cfg.counter_mark_every == 0) {
      auto& c = cfg.observer->counters;
      // Refresh the running totals before the mark (node order, main thread).
      std::uint64_t served = 0, warnings = 0;
      double max_temp = 0.0;
      for (const auto& n : nodes) {
        const NodeSummary s = n.summary();
        served += s.served;
        warnings += s.warnings;
        max_temp = std::max(max_temp, s.peak_c);
      }
      namespace names = obs::names;
      c.counter(names::kFleetRequestsArrived).add(result.arrived -
                                                  c.counter_value(names::kFleetRequestsArrived));
      c.counter(names::kFleetRequestsServed)
          .add(served - c.counter_value(names::kFleetRequestsServed));
      c.counter(names::kFleetRequestsShed)
          .add(result.shed - c.counter_value(names::kFleetRequestsShed));
      c.counter(names::kFleetRequestsDeferred)
          .add(result.deferrals - c.counter_value(names::kFleetRequestsDeferred));
      c.counter(names::kFleetNodeWarnings)
          .add(warnings - c.counter_value(names::kFleetNodeWarnings));
      c.gauge(names::kFleetMaxNodePeakC).set(max_temp);
      c.mark(Time::ms(now_ms + cfg.epoch_ms));
    }
  }

  // Drain accounting: requests still queued at the horizon are neither
  // served nor shed (open-loop runs end mid-stream by construction).
  // Shed whatever is still deferred at the horizon.
  result.shed += deferred.size();
  result.duration_ms = static_cast<double>(epochs) * cfg.epoch_ms;

  std::vector<double> latencies;
  for (const Node& n : nodes) {
    const NodeSummary s = n.summary();
    result.nodes.push_back(s);
    result.served += s.served;
    result.total_warnings += s.warnings;
    result.served_pim_ops += s.served_pim_ops;
    result.max_node_peak_c = std::max(result.max_node_peak_c, s.peak_c);
    result.in_flight += n.backlog();
    for (const LatencySample& l : n.latencies()) latencies.push_back(l.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_latency_ms = percentile_sorted(latencies, 0.50);
  result.p99_latency_ms = percentile_sorted(latencies, 0.99);
  result.max_latency_ms = latencies.empty() ? 0.0 : latencies.back();

  if (cfg.observer != nullptr) {
    namespace names = obs::names;
    auto& c = cfg.observer->counters;
    c.counter(names::kFleetRequestsArrived)
        .add(result.arrived - c.counter_value(names::kFleetRequestsArrived));
    c.counter(names::kFleetRequestsServed)
        .add(result.served - c.counter_value(names::kFleetRequestsServed));
    c.counter(names::kFleetRequestsShed)
        .add(result.shed - c.counter_value(names::kFleetRequestsShed));
    c.counter(names::kFleetRequestsDeferred)
        .add(result.deferrals - c.counter_value(names::kFleetRequestsDeferred));
    c.counter(names::kFleetNodeWarnings)
        .add(result.total_warnings - c.counter_value(names::kFleetNodeWarnings));
    c.gauge(names::kFleetP50LatencyMs).set(result.p50_latency_ms);
    c.gauge(names::kFleetP99LatencyMs).set(result.p99_latency_ms);
    c.gauge(names::kFleetMaxNodePeakC).set(result.max_node_peak_c);
    c.gauge(names::kFleetAggOpPerNs).set(result.agg_op_per_ns());
    c.mark(Time::ms(result.duration_ms));
  }
  return result;
}

}  // namespace coolpim::fleet
