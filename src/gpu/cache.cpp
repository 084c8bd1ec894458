#include "gpu/cache.hpp"

namespace coolpim::gpu {

std::size_t Cache::sets_for(std::size_t capacity_bytes, std::size_t ways,
                            std::size_t line_bytes) {
  COOLPIM_REQUIRE(ways > 0 && line_bytes > 0, "cache geometry must be positive");
  COOLPIM_REQUIRE(capacity_bytes % (ways * line_bytes) == 0,
                  "capacity must be a whole number of sets");
  const std::size_t sets = capacity_bytes / (ways * line_bytes);
  COOLPIM_REQUIRE(sets > 0, "cache must hold at least one set");
  COOLPIM_REQUIRE((sets & (sets - 1)) == 0, "set count must be a power of two");
  return sets;
}

Cache::Cache(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes)
    : sets_{sets_for(capacity_bytes, ways, line_bytes)}, ways_{ways}, line_{line_bytes} {
  lines_.assign(sets_ * ways_, Line{});
}

bool Cache::access(std::uint64_t address) {
  const std::uint64_t block = address / line_;
  const std::size_t set = static_cast<std::size_t>(block) & (sets_ - 1);
  const std::uint64_t tag = block / sets_;
  Line* base = &lines_[set * ways_];
  ++tick_;

  Line* victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = tick_;
      ++hits_;
      return true;
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }
  ++misses_;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  return false;
}

bool Cache::contains(std::uint64_t address) const {
  const std::uint64_t block = address / line_;
  const std::size_t set = static_cast<std::size_t>(block) & (sets_ - 1);
  const std::uint64_t tag = block / sets_;
  const Line* base = &lines_[set * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::flush() {
  for (auto& line : lines_) line.valid = false;
}

}  // namespace coolpim::gpu
