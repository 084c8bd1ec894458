// Perf harness for the simulation kernel, emitted as BENCH_sim.json.
//
// Measurements:
//
//  - queue: raw event throughput through sim::Simulation / sim::EventQueue.
//    A fan of self-rescheduling one-shot chains with co-prime periods keeps
//    the 4-ary heap populated and exercises schedule+pop per event.  The
//    hop functor captures one pointer, so every event stays in EventAction's
//    inline buffer -- zero heap allocations per event.
//
//  - periodic: the schedule_periodic re-arm path (shared state + inline
//    re-arm functor), as used by every component tick in the full system.
//
//  - end_to_end: Fig. 13-style wall time -- full sys::System runs (GPU ->
//    HMC -> power -> thermal -> throttle loop) for representative workloads
//    under the paper's scenarios, timed per run.
//
//  - backend (gated): the hmc::Backend fidelity tiers (DESIGN.md section
//    15).  Cross-validates the analytic epoch-throughput tier against the
//    instruction-level pim-vault tier on every GraphBIG micro-kernel
//    (pim::cross_validate, tolerance pim::kXvalTolerance) and times the
//    per-epoch serve cost of all three tiers, so the tier-cost ratio --
//    the reason epoch-throughput is the default -- stays visible in CI
//    artifacts.  A kernel outside tolerance fails the binary (exit 1).
//
// Flags: --out FILE (default BENCH_sim.json), --quick (CI smoke: fewer
// events, tiny graph scale), --scale N (graph scale override).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "hmc/backend.hpp"
#include "pim/programs.hpp"
#include "pim/xval.hpp"
#include "sim/simulation.hpp"
#include "sys/system.hpp"

#include "perf_support.hpp"

using namespace coolpim;

namespace {

struct QueueResult {
  std::uint64_t events;
  double wall_ms;
  double events_per_sec;
  double ns_per_event;
};

/// Self-rescheduling hop: one pointer capture, inline in EventAction.
struct Chain {
  sim::Simulation* sim;
  std::uint64_t remaining;
  Time period;
};

struct Hop {
  Chain* chain;
  void operator()() const {
    if (chain->remaining == 0) return;
    --chain->remaining;
    chain->sim->schedule_in(chain->period, Hop{chain});
  }
};

QueueResult measure_queue(std::uint64_t total_events) {
  constexpr std::uint64_t kChains = 64;
  sim::Simulation sim;
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (std::uint64_t i = 0; i < kChains; ++i) {
    // Co-prime-ish periods interleave the chains in the heap.
    chains.push_back(Chain{&sim, total_events / kChains, Time::ns(100.0 + 7.0 * i)});
  }
  bench::StopWatch clock;
  for (auto& c : chains) sim.schedule_in(c.period, Hop{&c});
  sim.run_to_completion();
  QueueResult r{};
  r.events = sim.events_processed();
  r.wall_ms = clock.elapsed_ms();
  r.events_per_sec = static_cast<double>(r.events) / (r.wall_ms * 1e-3);
  r.ns_per_event = r.wall_ms * 1e6 / static_cast<double>(r.events);
  return r;
}

QueueResult measure_periodic(std::uint64_t total_events) {
  constexpr std::uint64_t kTasks = 16;
  sim::Simulation sim;
  bench::StopWatch clock;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    auto remaining = total_events / kTasks;
    sim.schedule_periodic(Time::ns(100.0 + 7.0 * i),
                          [remaining]() mutable { return --remaining > 0; });
  }
  sim.run_to_completion();
  QueueResult r{};
  r.events = sim.events_processed();
  r.wall_ms = clock.elapsed_ms();
  r.events_per_sec = static_cast<double>(r.events) / (r.wall_ms * 1e-3);
  r.ns_per_event = r.wall_ms * 1e6 / static_cast<double>(r.events);
  return r;
}

struct EndToEndRun {
  std::string workload;
  std::string scenario;
  double wall_ms;
  double sim_time_ms;
  double peak_dram_c;
};

struct EndToEndResult {
  unsigned scale;
  double workload_build_ms;
  std::vector<EndToEndRun> runs;
  double total_wall_ms{0.0};
};

EndToEndResult measure_end_to_end(const sys::WorkloadSet& set, unsigned scale,
                                  std::size_t n_workloads, double workload_build_ms) {
  EndToEndResult r{};
  r.scale = scale;
  r.workload_build_ms = workload_build_ms;

  const auto& names = sys::workload_names();
  const sys::Scenario scenarios[] = {sys::Scenario::kNonOffloading,
                                     sys::Scenario::kNaiveOffloading,
                                     sys::Scenario::kCoolPimHw};
  for (std::size_t w = 0; w < names.size() && w < n_workloads; ++w) {
    for (const auto scenario : scenarios) {
      sys::SystemConfig cfg;
      cfg.scenario = scenario;
      bench::StopWatch clock;
      sys::System system{cfg};
      const auto result = system.run(set.profile(names[w]));
      EndToEndRun run;
      run.workload = names[w];
      run.scenario = std::string{sys::to_string(scenario)};
      run.wall_ms = clock.elapsed_ms();
      run.sim_time_ms = result.exec_time.as_ms();
      run.peak_dram_c = result.peak_dram_temp.value();
      r.total_wall_ms += run.wall_ms;
      r.runs.push_back(std::move(run));
    }
  }
  return r;
}

struct BackendXvalRow {
  std::string kernel;
  pim::XvalPoint point;
  bool pass;
};

struct BackendResult {
  unsigned xval_epochs;
  std::vector<BackendXvalRow> xval;
  double epoch_throughput_ns_per_epoch;
  double event_detailed_ns_per_epoch;
  double pim_vault_ns_per_epoch;
  bool gate_pass;
};

/// Wall time per served epoch of one fidelity tier under saturating mixed
/// demand -- the cost a full run pays every ~10 us of simulated time.
double backend_ns_per_epoch(hmc::BackendKind kind, unsigned epochs) {
  hmc::BackendBuild build;
  build.kind = kind;
  const auto backend = hmc::make_backend(build);
  const Time epoch = Time::us(10.0);
  hmc::EpochDemand demand;
  demand.reads = 4e9 * epoch.as_sec();
  demand.writes = 2e9 * epoch.as_sec();
  demand.pim_ops = 6e9 * epoch.as_sec();
  demand.pim_return_fraction = 0.25;
  bench::StopWatch clock;
  for (unsigned i = 0; i < epochs; ++i) {
    (void)backend->serve(demand, epoch, Celsius{60.0});
  }
  return clock.elapsed_ms() * 1e6 / static_cast<double>(epochs);
}

/// The fidelity-tier section: per-kernel cross-validation (the same harness
/// tools/xval_backends gates CI on) plus per-epoch serve cost of each tier.
BackendResult measure_backends(bool quick) {
  BackendResult r{};
  r.xval_epochs = quick ? 8 : 40;
  r.gate_pass = true;
  for (const auto kernel : pim::kMicroKernels) {
    BackendXvalRow row;
    row.kernel = std::string{kernel};
    row.point = pim::cross_validate(kernel, Celsius{60.0}, r.xval_epochs);
    row.pass = std::abs(row.point.ratio - 1.0) <= pim::kXvalTolerance;
    r.gate_pass = r.gate_pass && row.pass;
    r.xval.push_back(std::move(row));
  }
  const unsigned timing_epochs = quick ? 100 : 1000;
  r.epoch_throughput_ns_per_epoch =
      backend_ns_per_epoch(hmc::BackendKind::kEpochThroughput, timing_epochs);
  r.event_detailed_ns_per_epoch =
      backend_ns_per_epoch(hmc::BackendKind::kEventDetailed, timing_epochs);
  r.pim_vault_ns_per_epoch =
      backend_ns_per_epoch(hmc::BackendKind::kPimVault, timing_epochs);
  return r;
}

int run_tool(int argc, char** argv) {
  const std::string out = bench::arg_value(argc, argv, "--out", "BENCH_sim.json");
  const bool quick = bench::arg_flag(argc, argv, "--quick");
  const std::string scale_arg = bench::arg_value(argc, argv, "--scale", quick ? "10" : "16");
  const auto scale = static_cast<unsigned>(parse_u64("--scale", scale_arg.c_str(), 24));
  const std::uint64_t queue_events = quick ? 100'000 : 2'000'000;
  const std::size_t n_workloads = quick ? 1 : 2;

  const QueueResult q = measure_queue(queue_events);
  const QueueResult p = measure_periodic(queue_events / 4);
  bench::StopWatch build_clock;
  const sys::WorkloadSet set{scale, 1};
  const double workload_build_ms = build_clock.elapsed_ms();
  const EndToEndResult e = measure_end_to_end(set, scale, n_workloads, workload_build_ms);
  const BackendResult be = measure_backends(quick);

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-sim/4");
  json.kv("quick", quick);
  json.begin_object("queue");
  json.kv("events", q.events);
  json.kv("wall_ms", q.wall_ms);
  json.kv("events_per_sec", q.events_per_sec);
  json.kv("ns_per_event", q.ns_per_event);
  json.end();
  json.begin_object("periodic");
  json.kv("events", p.events);
  json.kv("wall_ms", p.wall_ms);
  json.kv("events_per_sec", p.events_per_sec);
  json.kv("ns_per_event", p.ns_per_event);
  json.end();
  json.begin_object("end_to_end");
  json.kv("scale", static_cast<std::uint64_t>(e.scale));
  json.kv("workload_build_ms", e.workload_build_ms);
  json.kv("total_wall_ms", e.total_wall_ms);
  json.begin_array("runs");
  for (const auto& run : e.runs) {
    json.begin_object();
    json.kv("workload", run.workload);
    json.kv("scenario", run.scenario);
    json.kv("wall_ms", run.wall_ms);
    json.kv("sim_time_ms", run.sim_time_ms);
    json.kv("peak_dram_c", run.peak_dram_c);
    json.end();
  }
  json.end();
  json.end();
  json.begin_object("backend");
  json.kv("xval_epochs", static_cast<std::uint64_t>(be.xval_epochs));
  json.kv("xval_tolerance", pim::kXvalTolerance);
  json.begin_array("xval");
  for (const auto& row : be.xval) {
    json.begin_object();
    json.kv("kernel", row.kernel);
    json.kv("epoch_op_per_ns", row.point.epoch_op_per_ns);
    json.kv("pim_op_per_ns", row.point.pim_op_per_ns);
    json.kv("ratio", row.point.ratio);
    json.kv("pass", row.pass);
    json.end();
  }
  json.end();
  json.kv("epoch_throughput_ns_per_epoch", be.epoch_throughput_ns_per_epoch);
  json.kv("event_detailed_ns_per_epoch", be.event_detailed_ns_per_epoch);
  json.kv("pim_vault_ns_per_epoch", be.pim_vault_ns_per_epoch);
  json.kv("gate_pass", be.gate_pass);
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "perf_sim: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  std::cout << "Queue:     " << q.events_per_sec / 1e6 << " M events/s (" << q.ns_per_event
            << " ns/event)\n"
            << "Periodic:  " << p.events_per_sec / 1e6 << " M events/s\n"
            << "End-to-end (scale " << e.scale << "): " << e.total_wall_ms << " ms over "
            << e.runs.size() << " runs\n"
            << "Backend:   serve cost " << be.epoch_throughput_ns_per_epoch << " / "
            << be.event_detailed_ns_per_epoch << " / " << be.pim_vault_ns_per_epoch
            << " ns per epoch (epoch-throughput / event-detailed / pim-vault); xval "
            << (be.gate_pass ? "within" : "OUTSIDE") << " tolerance "
            << pim::kXvalTolerance << " on " << be.xval.size() << " kernels\n"
            << "Results written to " << out << "\n";
  if (!be.gate_pass) {
    for (const auto& row : be.xval) {
      if (!row.pass) {
        std::cerr << "perf_sim: backend xval FAILED for " << row.kernel << " (ratio "
                  << row.point.ratio << ", tolerance " << pim::kXvalTolerance << ")\n";
      }
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
