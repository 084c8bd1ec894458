// Tests for the workload characterizer (logical counts -> transactions).
#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"

#include "gpu/cache.hpp"
#include "gpu/characterize.hpp"

namespace coolpim::gpu {
namespace {

/// The reference replay: the same Rng stream through a tick-stamped
/// gpu::Cache, warmed with 4x the L2's line count before measuring.
double oracle_hit_rate(const GpuConfig& cfg, std::uint64_t property_bytes,
                       std::uint64_t sample_accesses, std::uint64_t seed) {
  Cache l2{cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes};
  Rng rng{seed};
  const std::uint64_t warm = cfg.l2_bytes / cfg.line_bytes * 4;
  for (std::uint64_t i = 0; i < warm; ++i) l2.access(rng.next_below(property_bytes));
  l2.reset_stats();
  for (std::uint64_t i = 0; i < sample_accesses; ++i) {
    l2.access(rng.next_below(property_bytes));
  }
  return l2.hit_rate();
}

void expect_matches_oracle(const GpuConfig& cfg, std::uint64_t property_bytes,
                           std::uint64_t sample_accesses, std::uint64_t seed) {
  const CacheHitModel model{cfg, property_bytes, sample_accesses, seed};
  // Bit for bit, not within a tolerance: goldens depend on this value.
  EXPECT_EQ(model.random_hit_rate(),
            oracle_hit_rate(cfg, property_bytes, sample_accesses, seed))
      << "l2 " << cfg.l2_bytes << " B/" << cfg.l2_ways << "-way, footprint "
      << property_bytes << " B, " << sample_accesses << " samples, seed " << seed;
}

GpuConfig small_l2() {
  GpuConfig cfg;
  cfg.l2_bytes = 4 * 1024;
  cfg.l2_ways = 4;
  return cfg;
}

TEST(CacheHitModelOracleTest, SmallL2FootprintsAroundCapacity) {
  // 4 KiB / 4-way / 64 B: 16 sets x 4 ways = 64 lines.  Footprints cover a
  // single word, exactly the capacity, one line over (the first evicting
  // footprint), partial last lines and a far larger array.
  const GpuConfig cfg = small_l2();
  const std::uint64_t cap = 64 * 64;
  for (const std::uint64_t bytes :
       {std::uint64_t{8}, std::uint64_t{100}, cap - 1, cap, cap + 1, cap + 64, cap + 65,
        3 * cap + 7, 40 * cap}) {
    for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
      expect_matches_oracle(cfg, bytes, 20000, seed);
    }
  }
}

TEST(CacheHitModelOracleTest, DefaultL2FootprintsAroundCapacity) {
  const GpuConfig cfg;  // 1 MiB / 16-way / 64 B: 16384 lines
  const std::uint64_t cap = 1024 * 1024;
  for (const std::uint64_t bytes :
       {std::uint64_t{8}, std::uint64_t{1000}, cap - 3, cap, cap + 1, cap + 64,
        cap + 100, 5 * cap / 2 + 13}) {
    expect_matches_oracle(cfg, bytes, 1 << 16, 7);
  }
  // Too few samples to touch every line of a capacity-sized footprint.
  expect_matches_oracle(cfg, cap, 1000, 3);
}

TEST(CacheHitModelOracleTest, OtherLineSizes) {
  GpuConfig cfg = small_l2();
  for (const std::size_t line : {std::size_t{32}, std::size_t{48}, std::size_t{128}}) {
    cfg.line_bytes = line;
    cfg.l2_bytes = 16 * 4 * line;
    for (const std::uint64_t bytes : {std::uint64_t{8}, 64 * line, 64 * line + 1, 200 * line + 5}) {
      expect_matches_oracle(cfg, bytes, 5000, 11);
    }
  }
}

TEST(CacheHitModelOracleTest, ProductionFootprintsAtSeveralSeeds) {
  // SystemRun sizes the footprint at 8 B per vertex and replays 2^20
  // samples: 128 KiB at scale 14 (resident), 2 MiB at scale 18 (evicting).
  const GpuConfig cfg;
  for (const std::uint64_t seed : {1ull, 7ull, 0x5eedull}) {
    expect_matches_oracle(cfg, (std::uint64_t{1} << 14) * 8, 1 << 20, seed);
    expect_matches_oracle(cfg, (std::uint64_t{1} << 18) * 8, 1 << 20, seed);
  }
}

TEST(CacheHitModelOracleTest, ResidentFootprintIsAllHitsOnceWarm) {
  // A footprint well under capacity is fully touched during warm-up.
  const GpuConfig cfg;
  EXPECT_EQ(CacheHitModel(cfg, 128 * 1024).random_hit_rate(), 1.0);
}

TEST(CacheHitModelOracleTest, ZeroSamplesGiveZero) {
  EXPECT_EQ(CacheHitModel(GpuConfig{}, 128 * 1024, 0).random_hit_rate(), 0.0);
  EXPECT_EQ(CacheHitModel(GpuConfig{}, 64ull * 1024 * 1024, 0).random_hit_rate(), 0.0);
  EXPECT_EQ(CacheHitModel(small_l2(), 8, 0).random_hit_rate(), 0.0);
}

TEST(CacheHitModelOracleTest, BadGeometryThrows) {
  GpuConfig not_whole_sets;
  not_whole_sets.l2_bytes = 1000;
  EXPECT_THROW((CacheHitModel{not_whole_sets, 1024}), ConfigError);
  GpuConfig not_pow2_sets;
  not_pow2_sets.l2_bytes = 3 * 16 * 64;
  EXPECT_THROW((CacheHitModel{not_pow2_sets, 1024}), ConfigError);
  GpuConfig zero_ways;
  zero_ways.l2_ways = 0;
  EXPECT_THROW((CacheHitModel{zero_ways, 1024}), ConfigError);
}

TEST(CacheHitModelTest, SmallFootprintMostlyHits) {
  const GpuConfig cfg;
  const CacheHitModel model{cfg, 256 * 1024};  // fits in the 1 MB L2
  EXPECT_GT(model.random_hit_rate(), 0.95);
}

TEST(CacheHitModelTest, LargeFootprintMostlyMisses) {
  const GpuConfig cfg;
  const CacheHitModel model{cfg, 64ull * 1024 * 1024};
  EXPECT_LT(model.random_hit_rate(), 0.05);
}

TEST(CacheHitModelTest, MonotoneInFootprint) {
  const GpuConfig cfg;
  double prev = 1.1;
  for (const std::uint64_t mb : {1ull, 2ull, 4ull, 8ull, 16ull}) {
    const CacheHitModel model{cfg, mb * 1024 * 1024};
    EXPECT_LE(model.random_hit_rate(), prev + 0.02);
    prev = model.random_hit_rate();
  }
}

TEST(CacheHitModelTest, StreamsNeverHit) {
  const GpuConfig cfg;
  const CacheHitModel model{cfg, 1024};
  EXPECT_DOUBLE_EQ(model.stream_hit_rate(), 0.0);
}

TEST(CacheHitModelTest, ZeroFootprintThrows) {
  const GpuConfig cfg;
  EXPECT_THROW((CacheHitModel{cfg, 0}), ConfigError);
}

TEST(CharacterizeTest, StreamingBytesBecomeLineTransactions) {
  const GpuConfig cfg;
  const CacheHitModel cache{cfg, 64ull * 1024 * 1024};  // ~0 hit rate
  graph::IterationProfile it;
  it.struct_scan_bytes = 64 * 1000;
  const auto d = characterize(it, cache);
  EXPECT_NEAR(d.read_txns, 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(d.write_txns, 0.0);
  EXPECT_DOUBLE_EQ(d.atomic_ops, 0.0);
}

TEST(CharacterizeTest, PropertyReadsFilteredByHitRate) {
  const GpuConfig cfg;
  const CacheHitModel big{cfg, 64ull * 1024 * 1024};
  const CacheHitModel small{cfg, 128 * 1024};
  graph::IterationProfile it;
  it.property_reads = 10000;
  const auto cold = characterize(it, big);
  const auto warm = characterize(it, small);
  EXPECT_GT(cold.read_txns, 0.9 * 10000);
  EXPECT_LT(warm.read_txns, 0.2 * 10000);
}

TEST(CharacterizeTest, AtomicsBypassCache) {
  // GraphPIM policy: PIM-target data lives in an uncacheable region, so the
  // atomic count passes through regardless of cache size.
  const GpuConfig cfg;
  const CacheHitModel small{cfg, 64 * 1024};
  graph::IterationProfile it;
  it.atomic_ops = 4242;
  const auto d = characterize(it, small);
  EXPECT_DOUBLE_EQ(d.atomic_ops, 4242.0);
  EXPECT_DOUBLE_EQ(d.read_txns, 0.0);
}

TEST(CharacterizeTest, WritesScaleWithMissRate) {
  const GpuConfig cfg;
  const CacheHitModel cold{cfg, 64ull * 1024 * 1024};
  graph::IterationProfile it;
  it.property_writes = 5000;
  const auto d = characterize(it, cold);
  EXPECT_GT(d.write_txns, 0.9 * 5000);
}

}  // namespace
}  // namespace coolpim::gpu
