#include "dense/factorizations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace fsaic {
namespace {

/// Random SPD matrix A = R^T R + n*I.
DenseMatrix random_spd_dense(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix r(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      r(i, j) = rng.next_uniform(-1.0, 1.0);
    }
  }
  DenseMatrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      value_t s = (i == j) ? static_cast<value_t>(n) : 0.0;
      for (index_t k = 0; k < n; ++k) {
        s += r(k, i) * r(k, j);
      }
      a(i, j) = s;
    }
  }
  return a;
}

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_uniform(-1.0, 1.0);
  return v;
}

value_t residual_inf(const DenseMatrix& a, std::span<const value_t> x,
                     std::span<const value_t> b) {
  value_t worst = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    value_t s = -b[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < a.cols(); ++j) {
      s += a(i, j) * x[static_cast<std::size_t>(j)];
    }
    worst = std::max(worst, std::abs(s));
  }
  return worst;
}

TEST(CholeskyTest, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] = L L^T with L = [[2, 0], [1, sqrt(2)]].
  DenseMatrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 3.0;
  ASSERT_TRUE(cholesky_factor(a));
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_NEAR(a(1, 1), std::sqrt(2.0), 1e-15);
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3 and -1
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(LdltTest, HandlesIndefiniteWithNonzeroPivots) {
  // diag(1, -1) has LDL^T = I * diag(1, -1) * I.
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  ASSERT_TRUE(ldlt_factor(a));
  std::vector<value_t> b{3.0, 4.0};
  ldlt_solve(a, b);
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], -4.0);
}

TEST(LuTest, SolvesWithRowSwaps) {
  // Requires pivoting: first pivot is 0.
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  std::vector<index_t> piv(2);
  ASSERT_TRUE(lu_factor(a, piv));
  std::vector<value_t> b{5.0, 7.0};
  lu_solve(a, piv, b);
  EXPECT_DOUBLE_EQ(b[0], 7.0);
  EXPECT_DOUBLE_EQ(b[1], 5.0);
}

TEST(LuTest, DetectsSingularMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  std::vector<index_t> piv(2);
  EXPECT_FALSE(lu_factor(a, piv));
}

TEST(SolveSpdTest, FallsBackAndSolves) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // indefinite: Cholesky fails, LDL^T succeeds
  const DenseMatrix a_copy = a;
  std::vector<value_t> b{1.0, 0.0};
  ASSERT_TRUE(solve_spd_system(std::move(a), b));
  EXPECT_NEAR(residual_inf(a_copy, b, std::vector<value_t>{1.0, 0.0}), 0.0, 1e-12);
}

TEST(CholeskyLastUnitTest, MatchesCholeskySolveOnLastUnitVectorBitForBit) {
  for (const index_t n : {1, 2, 5, 21, 40}) {
    DenseMatrix f = random_spd_dense(n, 900 + static_cast<std::uint64_t>(n));
    ASSERT_TRUE(cholesky_factor(f));
    std::vector<value_t> b(static_cast<std::size_t>(n), 0.0);
    b.back() = 1.0;
    cholesky_solve(f, b);
    // Stale contents must be overwritten, not accumulated.
    std::vector<value_t> x(static_cast<std::size_t>(n), 7.0);
    cholesky_solve_last_unit(f, x);
    for (std::size_t k = 0; k < b.size(); ++k) {
      EXPECT_EQ(b[k], x[k]) << "n=" << n << " k=" << k;
    }
  }
}

/// kCholeskyLanes different SPD systems of size n, interleaved in the lane
/// layout with NaN in every upper-triangle slot (the kernels must not read
/// it), and the systems themselves.
std::vector<value_t> pack_lanes(index_t n, std::uint64_t seed,
                                std::vector<DenseMatrix>& systems) {
  const auto nn = static_cast<std::size_t>(n);
  std::vector<value_t> pack(nn * nn * kCholeskyLanes);
  systems.clear();
  for (int l = 0; l < kCholeskyLanes; ++l) {
    systems.push_back(random_spd_dense(n, seed + static_cast<std::uint64_t>(l)));
    for (std::size_t c = 0; c < nn; ++c) {
      for (std::size_t r = 0; r < nn; ++r) {
        pack[(c * nn + r) * kCholeskyLanes + static_cast<std::size_t>(l)] =
            r >= c ? systems.back()(static_cast<index_t>(r), static_cast<index_t>(c))
                   : std::nan("");
      }
    }
  }
  return pack;
}

TEST(CholeskyLanesTest, EveryLaneMatchesTheScalarKernelsBitForBit) {
  for (const index_t n : {1, 3, 21, 40}) {
    std::vector<DenseMatrix> systems;
    auto pack = pack_lanes(n, 1000 + static_cast<std::uint64_t>(n), systems);
    ASSERT_TRUE(cholesky_factor_lanes(pack, n));
    const auto nn = static_cast<std::size_t>(n);
    std::vector<value_t> x(nn * kCholeskyLanes);
    cholesky_solve_last_unit_lanes(pack, n, x);
    for (int l = 0; l < kCholeskyLanes; ++l) {
      const auto lane = static_cast<std::size_t>(l);
      DenseMatrix f = systems[lane];
      ASSERT_TRUE(cholesky_factor(f));
      for (std::size_t c = 0; c < nn; ++c) {
        for (std::size_t r = c; r < nn; ++r) {
          EXPECT_EQ(pack[(c * nn + r) * kCholeskyLanes + lane],
                    f(static_cast<index_t>(r), static_cast<index_t>(c)))
              << "n=" << n << " lane=" << l << " L(" << r << "," << c << ")";
        }
      }
      std::vector<value_t> b(nn, 0.0);
      b.back() = 1.0;
      cholesky_solve(f, b);
      for (std::size_t r = 0; r < nn; ++r) {
        EXPECT_EQ(x[r * kCholeskyLanes + lane], b[r])
            << "n=" << n << " lane=" << l << " x" << r;
      }
    }
  }
}

TEST(CholeskyLanesTest, AnyLanePivotFailureFailsTheGroup) {
  std::vector<DenseMatrix> systems;
  auto pack = pack_lanes(6, 77, systems);
  // Lane 2's last diagonal entry becomes hugely negative: its final pivot
  // fails while every other lane would succeed.
  pack[(5 * 6 + 5) * kCholeskyLanes + 2] = -1e6;
  EXPECT_FALSE(cholesky_factor_lanes(pack, 6));
}

class FactorizationProperty : public ::testing::TestWithParam<index_t> {};

TEST_P(FactorizationProperty, CholeskySolvesRandomSpd) {
  const index_t n = GetParam();
  const auto a = random_spd_dense(n, 100 + static_cast<std::uint64_t>(n));
  DenseMatrix f = a;
  ASSERT_TRUE(cholesky_factor(f));
  auto b = random_vector(n, 200 + static_cast<std::uint64_t>(n));
  const auto b0 = b;
  cholesky_solve(f, b);
  EXPECT_LT(residual_inf(a, b, b0), 1e-9 * static_cast<value_t>(n));
}

TEST_P(FactorizationProperty, LdltSolvesRandomSpd) {
  const index_t n = GetParam();
  const auto a = random_spd_dense(n, 300 + static_cast<std::uint64_t>(n));
  DenseMatrix f = a;
  ASSERT_TRUE(ldlt_factor(f));
  auto b = random_vector(n, 400 + static_cast<std::uint64_t>(n));
  const auto b0 = b;
  ldlt_solve(f, b);
  EXPECT_LT(residual_inf(a, b, b0), 1e-9 * static_cast<value_t>(n));
}

TEST_P(FactorizationProperty, LuSolvesRandomSpd) {
  const index_t n = GetParam();
  const auto a = random_spd_dense(n, 500 + static_cast<std::uint64_t>(n));
  DenseMatrix f = a;
  std::vector<index_t> piv(static_cast<std::size_t>(n));
  ASSERT_TRUE(lu_factor(f, piv));
  auto b = random_vector(n, 600 + static_cast<std::uint64_t>(n));
  const auto b0 = b;
  lu_solve(f, piv, b);
  EXPECT_LT(residual_inf(a, b, b0), 1e-9 * static_cast<value_t>(n));
}

TEST_P(FactorizationProperty, CholeskyAndLuAgree) {
  const index_t n = GetParam();
  const auto a = random_spd_dense(n, 700 + static_cast<std::uint64_t>(n));
  auto b1 = random_vector(n, 800 + static_cast<std::uint64_t>(n));
  auto b2 = b1;
  DenseMatrix f1 = a;
  ASSERT_TRUE(cholesky_factor(f1));
  cholesky_solve(f1, b1);
  DenseMatrix f2 = a;
  std::vector<index_t> piv(static_cast<std::size_t>(n));
  ASSERT_TRUE(lu_factor(f2, piv));
  lu_solve(f2, piv, b2);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b2[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

TEST(DenseMatrixTest, MultiplyMatchesManual) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(0, 2) = 3.0;
  a(1, 0) = 4.0;
  a(1, 1) = 5.0;
  a(1, 2) = 6.0;
  std::vector<value_t> x{1.0, 0.0, -1.0};
  std::vector<value_t> y(2);
  a.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(DenseMatrixTest, IdentityAndSymmetry) {
  const auto eye = DenseMatrix::identity(3);
  EXPECT_TRUE(eye.is_symmetric());
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

}  // namespace
}  // namespace fsaic
