#include "cachesim/cache_model.hpp"

#include <gtest/gtest.h>

#include "matgen/generators.hpp"
#include "sparse/csr.hpp"

namespace fsaic {
namespace {

TEST(CacheModelTest, RepeatedAccessHitsAfterFirstMiss) {
  CacheModel c({.line_bytes = 64, .size_bytes = 1024, .associativity = 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(8));   // same line
  EXPECT_TRUE(c.access(63));  // still same line
  EXPECT_FALSE(c.access(64)); // next line
  EXPECT_EQ(c.misses(), 2);
  EXPECT_EQ(c.hits(), 2);
}

TEST(CacheModelTest, LruEvictionInOneSet) {
  // 2-way, 2 sets of 64 B lines: addresses 0, 128, 256 all map to set 0.
  CacheModel c({.line_bytes = 64, .size_bytes = 256, .associativity = 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(128));
  EXPECT_TRUE(c.access(0));     // refresh line 0 → line 128 becomes LRU
  EXPECT_FALSE(c.access(256));  // evicts 128
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(128));  // was evicted
}

TEST(CacheModelTest, FlushForgetsEverything) {
  CacheModel c({.line_bytes = 64, .size_bytes = 512, .associativity = 1});
  EXPECT_FALSE(c.access(0));
  c.flush();
  EXPECT_FALSE(c.access(0));
  EXPECT_EQ(c.misses(), 1);  // stats were reset too
}

TEST(CacheModelTest, RejectsBadGeometry) {
  EXPECT_THROW(CacheModel({.line_bytes = 48, .size_bytes = 480, .associativity = 1}),
               Error);
  EXPECT_THROW(CacheModel({.line_bytes = 64, .size_bytes = 32, .associativity = 1}),
               Error);
}

TEST(CacheReplayTest, SequentialRowsHitWithinLines) {
  // Tridiagonal x accesses are nearly sequential: with 64 B lines (8 values)
  // roughly one miss per 8 columns.
  const auto a = poisson2d(64, 1);  // tridiagonal, 64 rows
  const auto report =
      replay_spmv_x_accesses(a, {.line_bytes = 64, .size_bytes = 1024,
                                 .associativity = 8});
  EXPECT_EQ(report.accesses, a.nnz());
  EXPECT_LE(report.misses, 10);  // 64*8/64 = 8 lines, plus slack
  EXPECT_GE(report.misses, 8);
}

TEST(CacheReplayTest, LargerLinesReduceMisses) {
  const auto a = poisson2d(40, 40);
  const auto small = replay_spmv_x_accesses(
      a, {.line_bytes = 64, .size_bytes = 8 * 1024, .associativity = 8});
  const auto large = replay_spmv_x_accesses(
      a, {.line_bytes = 256, .size_bytes = 8 * 1024, .associativity = 4});
  EXPECT_LT(large.misses, small.misses);
}

TEST(CacheReplayTest, TinyCacheThrashesOnStride) {
  // Matrix rows that jump across x with a stride larger than the cache
  // force a miss on (almost) every access.
  std::vector<std::vector<index_t>> rows(64);
  for (index_t i = 0; i < 64; ++i) {
    rows[static_cast<std::size_t>(i)] = {static_cast<index_t>((i * 17) % 64 * 512)};
  }
  const auto p = SparsityPattern::from_rows(64, 64 * 512, std::move(rows));
  CsrMatrix m{p};
  const auto report = replay_spmv_x_accesses(
      m, {.line_bytes = 64, .size_bytes = 128, .associativity = 1});
  EXPECT_EQ(report.misses, report.accesses);
}

TEST(CacheReplayTest, ChainedReplayKeepsState) {
  const auto a = poisson2d(16, 16);
  CacheModel model({.line_bytes = 64, .size_bytes = 64 * 1024, .associativity = 8});
  const auto first = replay_spmv_x_accesses(a, model);
  const auto second = replay_spmv_x_accesses(a, model);
  // Everything fits into 64 KiB, so the second pass is all hits.
  EXPECT_GT(first.misses, 0);
  EXPECT_EQ(second.misses, 0);
}

TEST(CacheReplayTest, MissRateHelper) {
  XAccessReport r{.accesses = 10, .misses = 4};
  EXPECT_DOUBLE_EQ(r.miss_rate(), 0.4);
  EXPECT_DOUBLE_EQ(XAccessReport{}.miss_rate(), 0.0);
}

class CacheLineSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheLineSweep, MissesPerNnzDecreaseMonotonicallyWithLineSize) {
  const int line = GetParam();
  const auto a = poisson2d(30, 30);
  const auto report = replay_spmv_x_accesses(
      a, {.line_bytes = line, .size_bytes = 16 * 1024,
          .associativity = 4});
  const auto report_next = replay_spmv_x_accesses(
      a, {.line_bytes = line * 2, .size_bytes = 16 * 1024,
          .associativity = 4});
  EXPECT_LE(report_next.misses, report.misses)
      << "doubling the line from " << line << " B increased misses";
}

INSTANTIATE_TEST_SUITE_P(Lines, CacheLineSweep, ::testing::Values(32, 64, 128, 256));

TEST(CacheReplayTest, WholeVectorInCacheMissesOncePerLine) {
  // x fits entirely: every line is missed exactly once, and every stored
  // entry is one access.
  const auto a = poisson2d(12, 12);  // 144 doubles of x = 1152 B = 18 lines
  const auto report = replay_spmv_x_accesses(
      a, {.line_bytes = 64, .size_bytes = 64 * 1024, .associativity = 8});
  EXPECT_EQ(report.misses, 18);
  EXPECT_EQ(report.accesses, a.nnz());
}

}  // namespace
}  // namespace fsaic
