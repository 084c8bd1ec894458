// Workload characterization: logical access counts -> memory transactions.
//
// Graph workloads touch memory in three ways: streaming scans of the CSR
// arrays (perfectly coalesced, one 64-byte transaction per line, near-zero
// reuse), random 4-8 byte property accesses (one transaction each unless the
// L2 retains the line), and atomic RMWs (allocated in an uncacheable region
// per the GraphPIM policy the paper adopts, so they always go to memory).
// The random-access hit rate is *measured* by replaying a representative
// stream through the L2 cache model rather than assumed.
#pragma once

#include <cstdint>

#include "gpu/config.hpp"
#include "graph/profile.hpp"

namespace coolpim::gpu {

/// Measured cache behaviour for a given property-array footprint.
///
/// The replay is exact: it draws the same Rng{seed} addresses a gpu::Cache
/// of the configured L2 geometry would see (4x capacity-in-lines warm-up
/// draws, then `sample_accesses` measured ones) and counts the same hits and
/// misses, so random_hit_rate() equals the gpu::Cache replay bit for bit.
/// Two regimes, chosen by footprint (docs/PERFORMANCE.md, "L2 hit-rate
/// replay"):
///  - resident, ceil(property_bytes / line) <= sets x ways: no set ever
///    holds more than `ways` distinct lines, so nothing is evicted and an
///    access misses only on the first touch of its line.  A touched-line
///    bitmap counts first touches and stops drawing once every line is in;
///  - evicting: per-set tags packed most-recent first, searched linearly
///    and shifted on each touch -- true LRU, the same hit/miss sequence as
///    gpu::Cache's tick-stamped lines.
class CacheHitModel {
 public:
  /// `property_bytes`: total footprint of the randomly-accessed property
  /// arrays.  The hit rate is measured by replaying `sample_accesses`
  /// uniform-random accesses through the configured L2 (0 accesses gives
  /// 0.0).  Throws ConfigError on a zero footprint or an invalid geometry.
  CacheHitModel(const GpuConfig& cfg, std::uint64_t property_bytes,
                std::uint64_t sample_accesses = 1 << 20, std::uint64_t seed = 7);

  [[nodiscard]] double random_hit_rate() const { return random_hit_rate_; }
  /// Streaming scans miss essentially always (no reuse within an iteration).
  [[nodiscard]] double stream_hit_rate() const { return 0.0; }

 private:
  double random_hit_rate_{0.0};
};

/// Memory transactions one kernel iteration sends to the HMC.
struct MemoryDemand {
  double read_txns{0.0};    // 64-byte reads
  double write_txns{0.0};   // 64-byte writes
  double atomic_ops{0.0};   // PIM-offloadable RMWs (uncacheable)
};

/// Convert an iteration profile into memory-transaction demand.
[[nodiscard]] MemoryDemand characterize(const graph::IterationProfile& it,
                                        const CacheHitModel& cache);

}  // namespace coolpim::gpu
