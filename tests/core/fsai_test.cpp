#include "core/fsai.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gram_reference.hpp"
#include "matgen/generators.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"

namespace fsaic {
namespace {

/// Full lower-triangular pattern (every entry col <= row).
SparsityPattern full_lower(index_t n) {
  std::vector<std::vector<index_t>> rows(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      rows[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  return SparsityPattern::from_rows(n, n, std::move(rows));
}

TEST(FsaiTest, DiagonalMatrixGivesExactInverseSquareRoot) {
  CooBuilder b(3, 3);
  b.add(0, 0, 4.0);
  b.add(1, 1, 9.0);
  b.add(2, 2, 16.0);
  const auto a = b.to_csr();
  const auto g = compute_fsai_factor(a, full_lower(3));
  // For diagonal A, G = D^{-1/2} exactly.
  EXPECT_NEAR(g.at(0, 0), 0.5, 1e-14);
  EXPECT_NEAR(g.at(1, 1), 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(g.at(2, 2), 0.25, 1e-14);
  EXPECT_NEAR(g.at(1, 0), 0.0, 1e-14);
}

TEST(FsaiTest, FullPatternReproducesExactInverseFactor) {
  // On the full lower-triangular pattern, G A G^T = I exactly (G is the
  // inverse Cholesky factor up to rounding).
  const auto a = poisson2d(4, 4);
  const auto g = compute_fsai_factor(a, full_lower(a.rows()));
  const auto gagt = multiply(multiply(g, a), transpose(g));
  EXPECT_LT(identity_residual_fro(gagt), 1e-10);
}

TEST(FsaiTest, SparsePatternGivesUnitDiagonalOfGAGt) {
  // Even on a sparse pattern the construction normalizes diag(G A G^T) = 1.
  const auto a = poisson2d(6, 6);
  const auto s = fsai_base_pattern(a, 1, 0.0);
  const auto g = compute_fsai_factor(a, s);
  const auto gagt = multiply(multiply(g, a), transpose(g));
  for (index_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(gagt.at(i, i), 1.0, 1e-10) << "row " << i;
  }
}

TEST(FsaiTest, RicherPatternReducesFrobeniusResidual) {
  const auto a = poisson2d(8, 8);
  const auto g1 = compute_fsai_factor(a, fsai_base_pattern(a, 1, 0.0));
  const auto g2 = compute_fsai_factor(a, fsai_base_pattern(a, 2, 0.0));
  const auto r1 = identity_residual_fro(multiply(multiply(g1, a), transpose(g1)));
  const auto r2 = identity_residual_fro(multiply(multiply(g2, a), transpose(g2)));
  EXPECT_LT(r2, r1);
}

TEST(FsaiTest, BasePatternLevelOneIsLowerTriangleOfA) {
  const auto a = poisson2d(5, 5);
  const auto s = fsai_base_pattern(a, 1, 0.0);
  EXPECT_EQ(s, a.pattern().lower_triangle());
  EXPECT_TRUE(s.has_full_diagonal());
}

TEST(FsaiTest, BasePatternPrefilterDropsWeakCouplings) {
  CooBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(2, 2, 1.0);
  b.add_symmetric(1, 0, 0.5);
  b.add_symmetric(2, 0, 1e-4);
  const auto a = b.to_csr();
  const auto s = fsai_base_pattern(a, 1, 0.01);
  EXPECT_TRUE(s.contains(1, 0));
  EXPECT_FALSE(s.contains(2, 0));
}

TEST(FsaiTest, RejectsNonLowerTriangularPattern) {
  const auto a = poisson2d(3, 3);
  EXPECT_THROW((void)compute_fsai_factor(a, a.pattern()), Error);
}

TEST(FsaiTest, RejectsPatternWithoutDiagonal) {
  const auto a = poisson2d(2, 2);
  const auto s = SparsityPattern::from_rows(4, 4, {{0}, {1}, {2}, {0}});
  EXPECT_THROW((void)compute_fsai_factor(a, s), Error);
}

TEST(FsaiTest, DegenerateRowFallsBackToJacobiScaling) {
  // A structurally singular local system: row 1's pattern {0, 1} with
  // A restricted to it singular. Build A with a zero 2x2 block determinant.
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add_symmetric(1, 0, 1.0);
  b.add(1, 1, 1.0);  // [[1,1],[1,1]] singular
  const auto a = b.to_csr();
  FsaiFactorStats stats;
  const auto g = compute_fsai_factor(a, full_lower(2), &stats);
  EXPECT_EQ(stats.degenerate_rows, 1);
  // Degenerate row degrades to 1/sqrt(a_ii).
  EXPECT_NEAR(g.at(1, 1), 1.0, 1e-14);
  EXPECT_NEAR(g.at(1, 0), 0.0, 1e-14);
}

/// EXPECT_EQ on every stored value: the gather assembly must be bit-identical
/// to the entrywise oracle, not merely close.
void expect_factors_bit_identical(const CsrMatrix& ref, const CsrMatrix& test) {
  ASSERT_EQ(ref.rows(), test.rows());
  ASSERT_EQ(ref.nnz(), test.nnz());
  for (index_t i = 0; i < ref.rows(); ++i) {
    const auto rc = ref.row_cols(i);
    const auto tc = test.row_cols(i);
    ASSERT_TRUE(std::equal(rc.begin(), rc.end(), tc.begin(), tc.end()))
        << "pattern row " << i;
    const auto rv = ref.row_vals(i);
    const auto tv = test.row_vals(i);
    for (std::size_t k = 0; k < rv.size(); ++k) {
      EXPECT_EQ(rv[k], tv[k]) << "row " << i << " entry " << k;
    }
  }
}

TEST(FsaiGatherTest, BitIdenticalToReferenceAcrossPatternLevels) {
  const auto a = poisson2d(12, 12);
  for (int level = 1; level <= 3; ++level) {
    const auto s = fsai_base_pattern(a, level, 0.0);
    FsaiFactorStats ref_stats;
    FsaiFactorStats gather_stats;
    const auto g_ref = oracle::reference_fsai_factor(a, s, &ref_stats);
    const auto g_gather = compute_fsai_factor(a, s, &gather_stats);
    expect_factors_bit_identical(g_ref, g_gather);
    EXPECT_EQ(ref_stats.fallback_rows, gather_stats.fallback_rows);
    EXPECT_EQ(ref_stats.degenerate_rows, gather_stats.degenerate_rows);
  }
}

TEST(FsaiGatherTest, BitIdenticalToReferenceOn3dStencil) {
  const auto a = stencil27(5, 5, 5);
  const auto s = fsai_base_pattern(a, 2, 0.0);
  expect_factors_bit_identical(oracle::reference_fsai_factor(a, s),
                               compute_fsai_factor(a, s));
}

TEST(FsaiGatherTest, BitIdenticalToReferenceOnRandomSpd) {
  for (const std::uint64_t seed : {1u, 7u, 21u}) {
    const auto a = random_spd(40, 5, seed);
    const auto s = fsai_base_pattern(a, 2, 0.0);
    expect_factors_bit_identical(oracle::reference_fsai_factor(a, s),
                                 compute_fsai_factor(a, s));
  }
}

TEST(FsaiGatherTest, BitIdenticalOnDegenerateJacobiFallback) {
  // The singular [[1,1],[1,1]] system exercises the Cholesky-failure +
  // Jacobi-degrade path in both assemblies (the gather path re-gathers the
  // full matrix for the fallback solve).
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add_symmetric(1, 0, 1.0);
  b.add(1, 1, 1.0);
  const auto a = b.to_csr();
  FsaiFactorStats ref_stats;
  FsaiFactorStats gather_stats;
  const auto g_ref = oracle::reference_fsai_factor(a, full_lower(2), &ref_stats);
  const auto g_gather = compute_fsai_factor(a, full_lower(2), &gather_stats);
  expect_factors_bit_identical(g_ref, g_gather);
  EXPECT_EQ(gather_stats.degenerate_rows, 1);
  // Same solve outcomes; only the gather counter differs by construction.
  EXPECT_EQ(ref_stats.fallback_rows, gather_stats.fallback_rows);
  EXPECT_EQ(ref_stats.degenerate_rows, gather_stats.degenerate_rows);
  EXPECT_EQ(ref_stats.rows_solved, gather_stats.rows_solved);
}

TEST(FsaiGatherTest, StatsAccountRowsAndGatheredEntries) {
  const auto a = poisson2d(8, 8);
  const auto s = fsai_base_pattern(a, 2, 0.0);
  FsaiFactorStats stats;
  (void)compute_fsai_factor(a, s, &stats);
  EXPECT_EQ(stats.rows_solved, a.rows());
  EXPECT_GT(stats.gram_entries_gathered, 0);
}

class FsaiSpdProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsaiSpdProperty, GatHasUnitDiagonalOnRandomSpd) {
  const auto a = random_spd(30, 4, GetParam());
  const auto g = compute_fsai_factor(a, fsai_base_pattern(a, 1, 0.0));
  const auto gagt = multiply(multiply(g, a), transpose(g));
  for (index_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(gagt.at(i, i), 1.0, 1e-9);
  }
  // G must stay lower triangular with positive diagonal.
  EXPECT_TRUE(g.pattern().is_lower_triangular());
  for (index_t i = 0; i < a.rows(); ++i) {
    EXPECT_GT(g.at(i, i), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsaiSpdProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace fsaic
