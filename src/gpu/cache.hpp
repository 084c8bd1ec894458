// Set-associative cache model with LRU replacement.
//
// Used functionally: the workload characterizer replays representative
// address streams through an L2 instance to measure hit rates per access
// class (streaming scans vs. random property accesses), and the detailed GPU
// micro-model uses L1 instances directly.  PIM-target data is allocated in an
// uncacheable region (GraphPIM policy), so atomics never enter these caches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace coolpim::gpu {

class Cache {
 public:
  Cache(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes);

  /// Set count of a capacity/ways/line geometry; throws ConfigError unless
  /// the capacity is a whole, power-of-two number of sets.
  [[nodiscard]] static std::size_t sets_for(std::size_t capacity_bytes, std::size_t ways,
                                            std::size_t line_bytes);

  /// Access a byte address; returns true on hit.  Allocate-on-miss.
  bool access(std::uint64_t address);

  /// Probe without updating state.
  [[nodiscard]] bool contains(std::uint64_t address) const;

  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }
  void reset_stats() { hits_ = misses_ = 0; }

  [[nodiscard]] std::size_t num_sets() const { return sets_; }
  [[nodiscard]] std::size_t ways() const { return ways_; }
  [[nodiscard]] std::size_t line_bytes() const { return line_; }

 private:
  struct Line {
    std::uint64_t tag{0};
    std::uint64_t lru{0};
    bool valid{false};
  };

  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_;
  std::vector<Line> lines_;  // sets_ * ways_, row-major by set
  std::uint64_t tick_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace coolpim::gpu
