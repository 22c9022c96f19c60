// Tests for the SAI-family baselines beyond FSAI: the non-factorized SPAI
// (Section 2.2 of the paper) and the adaptive/dynamic pattern growth the
// related-work section discusses.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/adaptive.hpp"
#include "core/fsai.hpp"
#include "core/fsai_driver.hpp"
#include "core/spai.hpp"
#include "matgen/generators.hpp"
#include "solver/pcg.hpp"
#include "sparse/coo.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/ops.hpp"

namespace fsaic {
namespace {

value_t inverse_residual(const CsrMatrix& a, const CsrMatrix& m) {
  return identity_residual_fro(multiply(a, m));
}

TEST(SpaiTest, DiagonalMatrixGivesExactInverse) {
  CooBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(1, 1, 4.0);
  b.add(2, 2, 8.0);
  const auto a = b.to_csr();
  const auto m = compute_spai(a, a.pattern());
  EXPECT_NEAR(m.at(0, 0), 0.5, 1e-14);
  EXPECT_NEAR(m.at(1, 1), 0.25, 1e-14);
  EXPECT_NEAR(m.at(2, 2), 0.125, 1e-14);
}

TEST(SpaiTest, FullPatternGivesExactInverse) {
  const auto a = poisson2d(3, 3);
  std::vector<std::vector<index_t>> rows(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.rows(); ++j) {
      rows[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  const auto full = SparsityPattern::from_rows(a.rows(), a.rows(), std::move(rows));
  const auto m = compute_spai(a, full);
  EXPECT_LT(inverse_residual(a, m), 1e-9);
}

TEST(SpaiTest, BeatsJacobiScalingInFrobenius) {
  const auto a = poisson2d(8, 8);
  const auto m = compute_spai(a, a.pattern());
  // Jacobi "inverse": D^{-1}.
  CooBuilder jb(a.rows(), a.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    jb.add(i, i, 1.0 / a.at(i, i));
  }
  EXPECT_LT(inverse_residual(a, m), inverse_residual(a, jb.to_csr()));
}

TEST(SpaiTest, PreconditionerReducesCgIterations) {
  const auto a = poisson2d(16, 16);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  Rng rng(1);
  std::vector<value_t> bg(static_cast<std::size_t>(a.rows()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector b(l, bg);

  DistVector x0(l);
  const auto plain = cg_solve(d, b, x0, {.rel_tol = 1e-8, .max_iterations = 4000});
  const SpaiPreconditioner spai(a, l);
  DistVector x1(l);
  const auto prec = pcg_solve(d, b, x1, spai, {.rel_tol = 1e-8, .max_iterations = 4000});
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
}

TEST(SpaiTest, SymmetrizedApplicationIsSymmetric) {
  const auto a = poisson2d(6, 6);
  const Layout l = Layout::blocked(a.rows(), 2);
  const SpaiPreconditioner spai(a, l);
  Rng rng(2);
  std::vector<value_t> u(static_cast<std::size_t>(a.rows()));
  std::vector<value_t> v(u.size());
  for (auto& e : u) e = rng.next_uniform(-1.0, 1.0);
  for (auto& e : v) e = rng.next_uniform(-1.0, 1.0);
  const DistVector du(l, u);
  const DistVector dv(l, v);
  DistVector mu(l);
  DistVector mv(l);
  spai.apply(du, mu);
  spai.apply(dv, mv);
  EXPECT_NEAR(dist_dot(dv, mu), dist_dot(du, mv), 1e-12);
}

TEST(AdaptiveTest, PatternIsLowerTriangularWithDiagonal) {
  const auto a = poisson2d(8, 8);
  const auto p = adaptive_fsai_pattern(a, {.growth_steps = 3, .entries_per_step = 2});
  EXPECT_TRUE(p.is_lower_triangular());
  EXPECT_TRUE(p.has_full_diagonal());
  EXPECT_GT(p.nnz(), a.rows());  // grew beyond the diagonal
  // Bounded growth: at most 1 + steps*entries per row.
  for (index_t i = 0; i < p.rows(); ++i) {
    EXPECT_LE(p.row_nnz(i), 1 + 3 * 2);
  }
}

TEST(AdaptiveTest, ZeroStepsGivesDiagonalPattern) {
  const auto a = poisson2d(5, 5);
  const auto p = adaptive_fsai_pattern(a, {.growth_steps = 0, .entries_per_step = 2});
  EXPECT_EQ(p.nnz(), a.rows());
  EXPECT_TRUE(p.has_full_diagonal());
}

TEST(AdaptiveTest, PatternIsPinnedOnEveryExecutor) {
  // Rows grow on the default executor, so under FSAIC_THREADS the team's
  // dynamic schedule must still produce exactly this structure.
  const auto a = graded2d(16, 16, 1e4);
  const auto p = adaptive_fsai_pattern(a, {.growth_steps = 3, .entries_per_step = 2});
  Fnv1a64Stream h;
  h.update(p.row_ptr().data(), p.row_ptr().size_bytes());
  h.update(p.col_idx().data(), p.col_idx().size_bytes());
  EXPECT_EQ(p.nnz(), 1720);
  EXPECT_EQ(hash_hex(h.digest()), "67c99045e9f3632e");
}

TEST(AdaptiveTest, MoreGrowthImprovesFrobeniusQuality) {
  const auto a = poisson2d(10, 10);
  value_t prev = 1e300;
  for (int steps : {0, 1, 2, 4}) {
    const auto p =
        adaptive_fsai_pattern(a, {.growth_steps = steps, .entries_per_step = 2});
    const auto g = compute_fsai_factor(a, p);
    const auto res = identity_residual_fro(multiply(multiply(g, a), transpose(g)));
    EXPECT_LE(res, prev + 1e-12) << "steps=" << steps;
    prev = res;
  }
}

TEST(AdaptiveTest, MatchesOrBeatsStaticFsaiIterationsAtSimilarSize) {
  // The selling point of dynamic patterns (paper Section 6): better
  // numerics per nonzero than a-priori patterns.
  const auto a = permute_symmetric(graded2d(24, 24, 1e4),
                                   tile_permutation_2d(24, 24, 4, 2));
  const Layout l = Layout::blocked(a.rows(), 2);
  const auto d = DistCsr::distribute(a, l);
  Rng rng(3);
  std::vector<value_t> bg(static_cast<std::size_t>(a.rows()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector b(l, bg);

  const auto solve_with_pattern = [&](const SparsityPattern& p) {
    const auto g = compute_fsai_factor(a, p);
    const FactorizedPreconditioner precond(
        DistCsr::distribute(g, l), DistCsr::distribute(transpose(g), l), "x");
    DistVector x(l);
    return pcg_solve(d, b, x, precond, {.rel_tol = 1e-8, .max_iterations = 5000});
  };

  const auto static_pattern = fsai_base_pattern(a, 1, 0.0);
  const double static_avg_row =
      static_cast<double>(static_pattern.nnz()) / a.rows();
  // Adaptive pattern grown to a similar average row size.
  const auto steps = static_cast<int>(static_avg_row);  // entries_per_step=1
  const auto adaptive = adaptive_fsai_pattern(
      a, {.growth_steps = steps, .entries_per_step = 1});
  const auto r_static = solve_with_pattern(static_pattern);
  const auto r_adaptive = solve_with_pattern(adaptive);
  ASSERT_TRUE(r_static.converged);
  ASSERT_TRUE(r_adaptive.converged);
  EXPECT_LE(r_adaptive.iterations, static_cast<int>(r_static.iterations * 1.10))
      << "adaptive=" << adaptive.nnz() << " static=" << static_pattern.nnz();
}

}  // namespace
}  // namespace fsaic
