// Perf harness for the workload-profiling fast path, emitted as
// BENCH_graph.json.
//
// Three measurements:
//
//  - construction: end-to-end sys::WorkloadSet build (RMAT graph + all ten
//    GraphBIG profiling runs), serial reference path vs. the pool-parallel
//    fast path, with a field-by-field bit-equivalence check between the two
//    (the acceptance contract: parallelism must never change a profile).
//
//  - cache: the same build against a fresh COOLPIM_PROFILE_CACHE directory,
//    cold (computes + stores) then warm (every profile served from disk,
//    zero functional kernel runs), with the hit/miss counters reported.
//
//  - csr: graph::make_ldbc_like alone, serial vs. pooled counting-sort
//    build.
//
//  - hit_model: gpu::CacheHitModel's exact L2 replay against the same Rng
//    stream through a tick-stamped gpu::Cache, at the scale-14 (128 KiB,
//    resident) and scale-18 (2 MiB, evicting) property footprints.  Gated
//    in-process: the hit rates must match bit for bit, the resident regime
//    must be >= 20x faster and the evicting regime no slower.
//
// Flags: --out FILE (default BENCH_graph.json), --quick (CI smoke: small
// scale), --scale N (override), --jobs N (parallel width, default
// COOLPIM_JOBS or all cores).
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "gpu/cache.hpp"
#include "gpu/characterize.hpp"
#include "graph/generator.hpp"
#include "runner/pool.hpp"
#include "sys/workloads.hpp"

#include "perf_support.hpp"

using namespace coolpim;

namespace {

bool profiles_equal(const std::vector<graph::WorkloadProfile>& a,
                    const std::vector<graph::WorkloadProfile>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.name != y.name || x.driver != y.driver || x.parallelism != y.parallelism ||
        x.atomic_kind != y.atomic_kind || x.graph_vertices != y.graph_vertices ||
        x.graph_edges != y.graph_edges || x.result_checksum != y.result_checksum ||
        x.iterations.size() != y.iterations.size()) {
      return false;
    }
    for (std::size_t j = 0; j < x.iterations.size(); ++j) {
      const auto& p = x.iterations[j];
      const auto& q = y.iterations[j];
      if (p.scanned_vertices != q.scanned_vertices || p.active_vertices != q.active_vertices ||
          p.edges_processed != q.edges_processed || p.work_threads != q.work_threads ||
          p.struct_scan_bytes != q.struct_scan_bytes || p.property_reads != q.property_reads ||
          p.property_writes != q.property_writes || p.atomic_ops != q.atomic_ops ||
          p.compute_warp_instructions != q.compute_warp_instructions ||
          p.divergent_warp_ratio != q.divergent_warp_ratio) {
        return false;
      }
    }
  }
  return true;
}

/// SystemRun's sample count per hit-rate replay.
constexpr std::uint64_t kHitSamples = 1 << 20;

/// gpu::Cache replay of the stream CacheHitModel draws: the reference it
/// must equal bit for bit.
double cache_replay_hit_rate(const gpu::GpuConfig& cfg, std::uint64_t property_bytes,
                             std::uint64_t seed) {
  gpu::Cache l2{cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes};
  Rng rng{seed};
  const std::uint64_t warm = cfg.l2_bytes / cfg.line_bytes * 4;
  for (std::uint64_t i = 0; i < warm; ++i) l2.access(rng.next_below(property_bytes));
  l2.reset_stats();
  for (std::uint64_t i = 0; i < kHitSamples; ++i) l2.access(rng.next_below(property_bytes));
  return l2.hit_rate();
}

struct HitModelCase {
  std::string regime;
  std::uint64_t footprint_bytes{0};
  double min_speedup{0.0};
  double fast_ms{0.0};
  double cache_ms{0.0};
  double hit_rate{0.0};
  bool bit_identical{true};
  [[nodiscard]] double speedup() const { return fast_ms > 0.0 ? cache_ms / fast_ms : 0.0; }
  [[nodiscard]] bool pass() const { return bit_identical && speedup() >= min_speedup; }
};

/// Best-of-`reps` wall time of both replays at one footprint; every
/// repetition's hit rates must agree.
HitModelCase time_hit_model(std::string regime, std::uint64_t footprint_bytes,
                            double min_speedup, int reps) {
  const gpu::GpuConfig cfg;
  HitModelCase c{std::move(regime), footprint_bytes, min_speedup};
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t seed = 7 + static_cast<std::uint64_t>(r);
    bench::StopWatch clock;
    const double fast =
        gpu::CacheHitModel{cfg, footprint_bytes, kHitSamples, seed}.random_hit_rate();
    const double fast_ms = clock.elapsed_ms();
    clock.restart();
    const double ref = cache_replay_hit_rate(cfg, footprint_bytes, seed);
    const double cache_ms = clock.elapsed_ms();
    c.fast_ms = r == 0 ? fast_ms : std::min(c.fast_ms, fast_ms);
    c.cache_ms = r == 0 ? cache_ms : std::min(c.cache_ms, cache_ms);
    if (r == 0) c.hit_rate = fast;
    c.bit_identical = c.bit_identical && fast == ref;
  }
  return c;
}

int run_tool(int argc, char** argv) {
  const std::string out = bench::arg_value(argc, argv, "--out", "BENCH_graph.json");
  const bool quick = bench::arg_flag(argc, argv, "--quick");
  const std::string scale_arg = bench::arg_value(argc, argv, "--scale", quick ? "12" : "16");
  const auto scale = static_cast<unsigned>(parse_u64("--scale", scale_arg.c_str(), 24));
  const std::string jobs_arg = bench::arg_value(argc, argv, "--jobs", "0");
  auto jobs = static_cast<unsigned>(parse_u64("--jobs", jobs_arg.c_str(), runner::Pool::kMaxJobs));
  if (jobs == 0) jobs = runner::Pool::default_jobs();
  const std::uint64_t seed = 1;

  // --- construction: serial reference vs. parallel fast path ---------------
  sys::WorkloadSet::BuildOptions serial_opt;
  serial_opt.serial_reference = true;
  bench::StopWatch clock;
  const sys::WorkloadSet serial_set{scale, seed, false, serial_opt};
  const double serial_ms = clock.elapsed_ms();

  sys::WorkloadSet::BuildOptions parallel_opt;
  parallel_opt.jobs = jobs;
  parallel_opt.use_cache = false;
  clock.restart();
  const sys::WorkloadSet parallel_set{scale, seed, false, parallel_opt};
  const double parallel_ms = clock.elapsed_ms();
  const bool match = profiles_equal(serial_set.all(), parallel_set.all());

  // --- cache: cold store, then warm all-hits build --------------------------
  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("coolpim-perf-graph-" + std::to_string(static_cast<std::uint64_t>(::getpid())));
  sys::WorkloadSet::BuildOptions cache_opt;
  cache_opt.jobs = jobs;
  cache_opt.cache_dir = cache_dir.string();

  clock.restart();
  const sys::WorkloadSet cold_set{scale, seed, false, cache_opt};
  const double cold_ms = clock.elapsed_ms();

  clock.restart();
  const sys::WorkloadSet warm_set{scale, seed, false, cache_opt};
  const double warm_ms = clock.elapsed_ms();

  const auto& cold = cold_set.build_stats();
  const auto& warm = warm_set.build_stats();
  const bool warm_all_hits = warm.cache_hits == warm_set.all().size() &&
                             warm.profiles_computed == 0 &&
                             profiles_equal(warm_set.all(), serial_set.all());
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  // --- csr: graph build alone, serial vs. pooled ----------------------------
  clock.restart();
  const auto g_serial = graph::make_ldbc_like(scale, seed);
  const double csr_serial_ms = clock.elapsed_ms();
  runner::Pool pool{jobs};
  clock.restart();
  const auto g_parallel = graph::make_ldbc_like(scale, seed, &pool);
  const double csr_parallel_ms = clock.elapsed_ms();
  const bool csr_match = g_serial.row_ptr() == g_parallel.row_ptr() &&
                         g_serial.col_idx() == g_parallel.col_idx();

  // --- hit_model: exact L2 replay vs. gpu::Cache, both regimes ------------
  const int hit_reps = quick ? 3 : 5;
  // 8 B per vertex: 128 KiB fits the 1 MiB L2, 2 MiB does not.
  const HitModelCase hit_cases[] = {
      time_hit_model("resident", (std::uint64_t{1} << 14) * 8, 20.0, hit_reps),
      time_hit_model("evicting", (std::uint64_t{1} << 18) * 8, 1.0, hit_reps),
  };
  const bool hit_gate = std::all_of(std::begin(hit_cases), std::end(hit_cases),
                                    [](const HitModelCase& c) { return c.pass(); });

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-graph/2");
  json.kv("quick", quick);
  json.kv("scale", static_cast<std::uint64_t>(scale));
  json.kv("jobs", static_cast<std::uint64_t>(jobs));
  json.begin_object("construction");
  json.kv("workloads", static_cast<std::uint64_t>(serial_set.all().size()));
  json.kv("serial_ms", serial_ms);
  json.kv("parallel_ms", parallel_ms);
  json.kv("speedup", parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
  json.kv("profiles_bit_identical", match);
  json.end();
  json.begin_object("cache");
  json.kv("cold_ms", cold_ms);
  json.kv("warm_ms", warm_ms);
  json.kv("warm_speedup_vs_serial", warm_ms > 0.0 ? serial_ms / warm_ms : 0.0);
  json.kv("cold_hits", cold.cache_hits);
  json.kv("cold_misses", cold.cache_misses);
  json.kv("cold_computed", cold.profiles_computed);
  json.kv("cold_stored", cold.cache_stored);
  json.kv("warm_hits", warm.cache_hits);
  json.kv("warm_misses", warm.cache_misses);
  json.kv("warm_computed", warm.profiles_computed);
  json.kv("warm_all_hits", warm_all_hits);
  json.end();
  json.begin_object("csr");
  json.kv("serial_ms", csr_serial_ms);
  json.kv("parallel_ms", csr_parallel_ms);
  json.kv("speedup", csr_parallel_ms > 0.0 ? csr_serial_ms / csr_parallel_ms : 0.0);
  json.kv("bit_identical", csr_match);
  json.end();
  json.begin_object("hit_model");
  json.kv("sample_accesses", kHitSamples);
  json.kv("repetitions", hit_reps);
  for (const auto& c : hit_cases) {
    json.kv(c.regime + "_footprint_bytes", c.footprint_bytes);
    json.kv(c.regime + "_fast_ms", c.fast_ms);
    json.kv(c.regime + "_cache_ms", c.cache_ms);
    json.kv(c.regime + "_speedup", c.speedup());
    json.kv(c.regime + "_hit_rate", c.hit_rate);
    json.kv(c.regime + "_bit_identical", c.bit_identical);
    json.kv(c.regime + "_min_speedup", c.min_speedup);
  }
  json.kv("gate_pass", hit_gate);
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "perf_graph: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  std::cout << "Construction (scale " << scale << ", jobs " << jobs << "): serial "
            << serial_ms << " ms, parallel " << parallel_ms << " ms ("
            << (parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0) << "x, bit-identical: "
            << (match ? "yes" : "NO") << ")\n"
            << "Cache: cold " << cold_ms << " ms, warm " << warm_ms << " ms (all hits: "
            << (warm_all_hits ? "yes" : "NO") << ")\n"
            << "CSR build: serial " << csr_serial_ms << " ms, parallel " << csr_parallel_ms
            << " ms (bit-identical: " << (csr_match ? "yes" : "NO") << ")\n";
  for (const auto& c : hit_cases) {
    std::cout << "L2 hit model, " << c.regime << " (" << c.footprint_bytes / 1024
              << " KiB): " << c.fast_ms << " ms vs gpu::Cache " << c.cache_ms << " ms ("
              << c.speedup() << "x, gate >= " << c.min_speedup
              << "x, bit-identical: " << (c.bit_identical ? "yes" : "NO") << ")\n";
  }
  std::cout << "Results written to " << out << "\n";
  // The equivalence checks are the whole point; fail loudly if they break.
  return (match && warm_all_hits && csr_match && hit_gate) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
