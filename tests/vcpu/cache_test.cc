#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/vcpu/branch_predictor.h"
#include "src/vcpu/cache.h"

namespace dfp {
namespace {

TEST(Cache, FirstAccessMissesThenHits) {
  CacheHierarchy cache;
  CacheAccessResult first = cache.Access(0x1000);
  EXPECT_EQ(first.hit_level, 4);  // Cold: served from memory.
  CacheAccessResult second = cache.Access(0x1000);
  EXPECT_EQ(second.hit_level, 1);
  EXPECT_LT(second.latency, first.latency);
}

TEST(Cache, SameLineHits) {
  CacheHierarchy cache;
  cache.Access(0x1000);
  EXPECT_EQ(cache.Access(0x1004).hit_level, 1);  // Same 64-byte line.
  EXPECT_EQ(cache.Access(0x103F).hit_level, 1);
  EXPECT_EQ(cache.Access(0x1040).hit_level, 4);  // Next line: cold.
}

TEST(Cache, L1EvictionFallsBackToL2) {
  CacheConfig config;
  CacheHierarchy cache(config);
  // Fill one L1 set beyond its associativity: lines mapping to the same set are spaced by
  // (sets * line) = (32KB / 8 ways) = 4KB.
  const uint64_t stride = config.l1.size_bytes / config.l1.ways;
  for (uint64_t i = 0; i < config.l1.ways + 1; ++i) {
    cache.Access(0x10000 + i * stride);
  }
  // The first line was evicted from L1 but still sits in L2.
  EXPECT_EQ(cache.Access(0x10000).hit_level, 2);
}

TEST(Cache, StatsCountMisses) {
  CacheHierarchy cache;
  for (int i = 0; i < 100; ++i) {
    cache.Access(static_cast<uint64_t>(i) * 64);
  }
  EXPECT_EQ(cache.stats().accesses, 100u);
  EXPECT_EQ(cache.stats().l1_misses, 100u);
  cache.Access(0);
  EXPECT_EQ(cache.stats().l1_misses, 100u);  // Hit: no new miss.
}

TEST(Cache, SequentialScanMostlyHits) {
  CacheHierarchy cache;
  uint64_t misses_before = cache.stats().l1_misses;
  for (uint64_t addr = 0; addr < 64 * 1024; addr += 8) {
    cache.Access(addr);
  }
  uint64_t misses = cache.stats().l1_misses - misses_before;
  // One miss per 64-byte line (8 accesses per line).
  EXPECT_EQ(misses, 1024u);
}

// 100K addresses: a hot 16 KiB set (L1 hits), a warm 1 MiB set (L2/L3) and a cold 64 MiB
// range (memory), so every level both hits and evicts.
std::vector<VAddr> AddressStream(uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<VAddr> stream(100000);
  for (VAddr& addr : stream) {
    const uint64_t pick = rng() % 10;
    const uint64_t range = pick < 5 ? (16ull << 10) : pick < 8 ? (1ull << 20) : (64ull << 20);
    addr = 0x100000 + rng() % range;
  }
  return stream;
}

std::vector<int> HitLevels(CacheHierarchy& cache, const std::vector<VAddr>& stream) {
  std::vector<int> levels;
  levels.reserve(stream.size());
  for (VAddr addr : stream) {
    levels.push_back(cache.Access(addr).hit_level);
  }
  return levels;
}

TEST(Cache, ResetBehavesLikeFreshHierarchy) {
  CacheHierarchy reused;
  HitLevels(reused, AddressStream(1));
  // Seeds repeat so that some rounds replay a stream whose tags are still stored in the reset
  // (invalid) lines: those must miss exactly as in an empty hierarchy.
  for (uint32_t seed : {1u, 1u, 2u, 3u, 2u}) {
    reused.Reset();
    EXPECT_EQ(reused.stats().accesses, 0u);
    CacheHierarchy fresh;
    const std::vector<VAddr> stream = AddressStream(seed);
    EXPECT_EQ(HitLevels(reused, stream), HitLevels(fresh, stream)) << "seed " << seed;
    EXPECT_EQ(reused.stats().accesses, fresh.stats().accesses);
    EXPECT_EQ(reused.stats().l1_misses, fresh.stats().l1_misses);
    EXPECT_EQ(reused.stats().l2_misses, fresh.stats().l2_misses);
    EXPECT_EQ(reused.stats().l3_misses, fresh.stats().l3_misses);
    // The stream exercises every level: hits in L1, L2 and L3, and misses to memory.
    EXPECT_LT(fresh.stats().l1_misses, fresh.stats().accesses);
    EXPECT_LT(fresh.stats().l2_misses, fresh.stats().l1_misses);
    EXPECT_LT(fresh.stats().l3_misses, fresh.stats().l2_misses);
    EXPECT_GT(fresh.stats().l3_misses, 0u);
  }
}

TEST(BranchPredictor, LearnsStableBranch) {
  BranchPredictor predictor;
  int misses = 0;
  for (int i = 0; i < 100; ++i) {
    misses += predictor.Branch(0x42, true);
  }
  EXPECT_LE(misses, 2);
}

TEST(BranchPredictor, AlternatingBranchMispredicts) {
  BranchPredictor predictor;
  int misses = 0;
  for (int i = 0; i < 100; ++i) {
    misses += predictor.Branch(0x42, i % 2 == 0);
  }
  EXPECT_GT(misses, 40);
}

TEST(BranchPredictor, IndependentSlots) {
  BranchPredictor predictor;
  for (int i = 0; i < 10; ++i) {
    predictor.Branch(0x100, true);
    predictor.Branch(0x200, false);
  }
  EXPECT_FALSE(predictor.Branch(0x100, true));
  EXPECT_FALSE(predictor.Branch(0x200, false));
}

}  // namespace
}  // namespace dfp
