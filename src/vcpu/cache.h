// Three-level set-associative cache hierarchy with LRU replacement.
//
// The cache model drives two things: the cycle cost of every memory instruction (which is what
// makes hash-table directory lookups the hotspot they are in the paper's Listing 1) and the
// cache-miss PMU events that sampling configurations can be armed on.
#ifndef DFP_SRC_VCPU_CACHE_H_
#define DFP_SRC_VCPU_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/vcpu/vmem.h"

namespace dfp {

// Outcome of one memory access: the level that served it and the total latency in cycles.
struct CacheAccessResult {
  int hit_level = 0;  // 1 = L1, 2 = L2, 3 = L3, 4 = memory
  uint32_t latency = 0;
};

struct CacheLevelConfig {
  uint64_t size_bytes = 0;
  uint32_t ways = 0;
  uint32_t latency = 0;  // Cycles to serve a hit at this level.
};

struct CacheConfig {
  uint32_t line_bytes = 64;
  CacheLevelConfig l1{32 * 1024, 8, 4};
  CacheLevelConfig l2{256 * 1024, 4, 12};
  CacheLevelConfig l3{8 * 1024 * 1024, 16, 42};
  uint32_t memory_latency = 220;
};

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_misses = 0;
};

// One inclusive cache level. LRU is tracked with per-line ages (small associativity makes the
// linear scan cheap). The age clock `tick_` only ever advances; Reset() invalidates every line
// in O(1) by moving the epoch up to it, so a line is valid iff its age is past the epoch. That
// lets pooled cores be reused without rewriting megabytes of lines per run.
class CacheLevel {
 public:
  CacheLevel(const CacheLevelConfig& config, uint32_t line_bytes);

  // Returns true on hit; on miss the line is installed (allocate-on-miss for loads and stores).
  bool Access(VAddr addr);

  uint32_t latency() const { return latency_; }
  // Empties the level: afterwards it behaves exactly like a freshly constructed one.
  void Reset() { epoch_ = tick_; }

 private:
  struct Line {
    uint64_t tag = ~0ull;
    uint64_t age = 0;
  };

  uint32_t ways_;
  uint32_t latency_;
  uint32_t set_count_;
  uint32_t line_shift_;
  uint64_t tick_ = 0;
  uint64_t epoch_ = 0;  // Lines aged at or before the epoch are invalid.
  std::vector<Line> lines_;  // set-major: lines_[set * ways_ + way]
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const CacheConfig& config = CacheConfig());

  // Simulates a data access (loads and stores both allocate).
  CacheAccessResult Access(VAddr addr);

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }
  // Empties every level and clears the stats in O(1) (see CacheLevel).
  void Reset();

 private:
  CacheConfig config_;
  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel l3_;
  CacheStats stats_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_CACHE_H_
