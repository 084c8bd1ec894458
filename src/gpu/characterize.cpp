#include "gpu/characterize.hpp"

#include <vector>

#include "common/rng.hpp"
#include "gpu/cache.hpp"

namespace coolpim::gpu {

namespace {

/// Misses among the `sample` measured draws when nothing is ever evicted:
/// exactly the first touches of each line.  Once all `lines` lines have been
/// touched every further access hits, so the replay stops drawing.
std::uint64_t resident_misses(Rng& rng, std::uint64_t property_bytes, std::uint64_t line,
                              std::uint64_t lines, std::uint64_t warm, std::uint64_t sample) {
  std::vector<std::uint64_t> touched((lines + 63) / 64, 0);
  std::uint64_t distinct = 0;
  const auto first_touch = [&] {
    const std::uint64_t block = rng.next_below(property_bytes) / line;
    std::uint64_t& word = touched[block / 64];
    const std::uint64_t bit = std::uint64_t{1} << (block % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++distinct;
    return true;
  };
  for (std::uint64_t i = 0; i < warm && distinct < lines; ++i) first_touch();
  std::uint64_t misses = 0;
  for (std::uint64_t i = 0; i < sample && distinct < lines; ++i) misses += first_touch();
  return misses;
}

/// Misses among the `sample` measured draws through a true-LRU cache: each
/// set's `ways` tags are kept most-recent first.  Lines are identified by
/// block number, which within one set is as unique as gpu::Cache's tag.
std::uint64_t evicting_misses(Rng& rng, std::uint64_t property_bytes, std::uint64_t line,
                              std::size_t sets, std::size_t ways, std::uint64_t warm,
                              std::uint64_t sample) {
  // block <= (2^64 - 2) / line, so the all-ones sentinel never matches.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> tags(sets * ways, kEmpty);
  const auto miss = [&] {
    const std::uint64_t block = rng.next_below(property_bytes) / line;
    std::uint64_t* row = &tags[(static_cast<std::size_t>(block) & (sets - 1)) * ways];
    // Insert at the front and carry each displaced tag one way back, until
    // the line's old slot (a hit) or the end of the set (a miss: the last
    // entry -- an empty slot while the set fills, else the LRU line -- drops).
    std::uint64_t carry = block;
    for (std::size_t w = 0; w < ways; ++w) {
      const std::uint64_t displaced = row[w];
      row[w] = carry;
      if (displaced == block) return false;
      carry = displaced;
    }
    return true;
  };
  for (std::uint64_t i = 0; i < warm; ++i) miss();
  std::uint64_t misses = 0;
  for (std::uint64_t i = 0; i < sample; ++i) misses += miss();
  return misses;
}

}  // namespace

CacheHitModel::CacheHitModel(const GpuConfig& cfg, std::uint64_t property_bytes,
                             std::uint64_t sample_accesses, std::uint64_t seed) {
  COOLPIM_REQUIRE(property_bytes > 0, "property footprint must be positive");
  const std::size_t sets = Cache::sets_for(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes);
  const std::uint64_t line = cfg.line_bytes;
  const std::uint64_t lines = property_bytes / line + (property_bytes % line != 0 ? 1 : 0);
  Rng rng{seed};
  // Warm-up: four draws per L2 line before measuring.
  const std::uint64_t warm = cfg.l2_bytes / line * 4;
  const std::uint64_t misses =
      lines <= sets * cfg.l2_ways
          ? resident_misses(rng, property_bytes, line, lines, warm, sample_accesses)
          : evicting_misses(rng, property_bytes, line, sets, cfg.l2_ways, warm,
                            sample_accesses);
  if (sample_accesses > 0) {
    random_hit_rate_ = static_cast<double>(sample_accesses - misses) /
                       static_cast<double>(sample_accesses);
  }
}

MemoryDemand characterize(const graph::IterationProfile& it, const CacheHitModel& cache) {
  MemoryDemand d;
  // Streaming scans: one 64-byte read per line, no reuse.
  d.read_txns += static_cast<double>(it.struct_scan_bytes) / 64.0 *
                 (1.0 - cache.stream_hit_rate());
  // Random property reads: one transaction per access on a miss.
  d.read_txns += static_cast<double>(it.property_reads) * (1.0 - cache.random_hit_rate());
  // Random property writes: write-allocate then eventual writeback; count the
  // writeback transaction (the allocate read is covered by the hit model).
  d.write_txns += static_cast<double>(it.property_writes) * (1.0 - cache.random_hit_rate());
  // Atomics bypass the cache (uncacheable PIM region).
  d.atomic_ops = static_cast<double>(it.atomic_ops);
  return d;
}

}  // namespace coolpim::gpu
