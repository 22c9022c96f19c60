#include "sparse/vector_ops.hpp"

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace fsaic {
namespace {

TEST(VectorOpsTest, Axpy) {
  std::vector<value_t> x{1.0, 2.0, 3.0};
  std::vector<value_t> y{1.0, 1.0, 1.0};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<value_t>{3.0, 5.0, 7.0}));
}

TEST(VectorOpsTest, Xpby) {
  std::vector<value_t> x{1.0, 2.0};
  std::vector<value_t> y{10.0, 20.0};
  xpby(x, 0.5, y);
  EXPECT_EQ(y, (std::vector<value_t>{6.0, 12.0}));
}

TEST(VectorOpsTest, DotAndNorms) {
  const std::vector<value_t> x{3.0, -4.0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(x), 4.0);
}

TEST(VectorOpsTest, DotSumsInIndexOrderUnderAnyOpenMpTeam) {
  // Residual histories are bit-identical across thread counts only if every
  // dot sums in one fixed order. Values spanning many magnitudes make any
  // regrouping of the sum (e.g. an OpenMP reduction) change the bits.
  constexpr std::size_t kN = 100003;
  Rng rng(42);
  std::vector<value_t> x(kN), y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = rng.next_uniform(-1.0, 1.0) *
           std::pow(10.0, static_cast<int>(i % 13) - 6);
    y[i] = rng.next_uniform(-1.0, 1.0);
  }
  value_t serial = 0.0;
  for (std::size_t i = 0; i < kN; ++i) serial += x[i] * y[i];
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const value_t team = dot(x, y);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  EXPECT_EQ(team, serial) << "dot must not depend on the OpenMP team size";
}

TEST(VectorOpsTest, Scale) {
  std::vector<value_t> x{1.0, -2.0};
  scale(-3.0, x);
  EXPECT_EQ(x, (std::vector<value_t>{-3.0, 6.0}));
}

TEST(VectorOpsTest, SizeMismatchThrows) {
  std::vector<value_t> x{1.0};
  std::vector<value_t> y{1.0, 2.0};
  EXPECT_THROW(axpy(1.0, x, y), Error);
  EXPECT_THROW((void)dot(x, y), Error);
}

TEST(VectorOpsTest, EmptyVectorsAreFine) {
  std::vector<value_t> x;
  std::vector<value_t> y;
  axpy(1.0, x, y);
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_DOUBLE_EQ(norm_inf(x), 0.0);
}

std::vector<value_t> iota_vec(std::size_t n, value_t scale) {
  std::vector<value_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = scale * static_cast<value_t>(i + 1) / 7.0;
  }
  return v;
}

TEST(FusedKernelsTest, CgSweepIsBitIdenticalToSeparateOps) {
  // The fused pipelined-CG recurrence must evaluate the exact expressions of
  // the three separate sweeps, element by element — EXPECT_EQ, no tolerance.
  constexpr std::size_t kN = 1237;  // not a multiple of any SIMD width
  const auto u = iota_vec(kN, 1.0);
  const auto w = iota_vec(kN, -0.3);
  const value_t beta = 0.37;
  const value_t malpha = -1.13;
  auto p1 = iota_vec(kN, 0.5), s1 = iota_vec(kN, 2.0), r1 = iota_vec(kN, -1.0);
  auto p2 = p1, s2 = s1, r2 = r1;
  xpby(u, beta, p1);
  xpby(w, beta, s1);
  axpy(malpha, s1, r1);
  fused_cg_sweep(u, w, beta, malpha, p2, s2, r2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(r1, r2);
}

TEST(FusedKernelsTest, AxpyPairIsBitIdenticalToSeparateOps) {
  constexpr std::size_t kN = 1019;
  const auto d = iota_vec(kN, 0.9);
  const auto q = iota_vec(kN, -0.7);
  const value_t alpha = 0.251;
  auto x1 = iota_vec(kN, 3.0), r1 = iota_vec(kN, -2.0);
  auto x2 = x1, r2 = r1;
  axpy(alpha, d, x1);
  axpy(-alpha, q, r1);
  fused_axpy_pair(alpha, d, -alpha, q, x2, r2);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(r1, r2);
}

TEST(FusedKernelsTest, SizeMismatchThrows) {
  std::vector<value_t> a3(3, 1.0);
  std::vector<value_t> a4(4, 1.0);
  std::vector<value_t> b3(3, 1.0);
  std::vector<value_t> c3(3, 1.0);
  EXPECT_THROW(fused_cg_sweep(a3, a4, 1.0, 1.0, b3, c3, a3), Error);
  EXPECT_THROW(fused_axpy_pair(1.0, a3, 1.0, a4, b3, c3), Error);
}

TEST(FusedKernelsTest, EmptyVectorsAreFine) {
  std::vector<value_t> e;
  std::vector<value_t> e2, e3, e4, e5;
  fused_cg_sweep(e, e2, 1.0, 1.0, e3, e4, e5);
  fused_axpy_pair(1.0, e, 1.0, e2, e3, e4);
}

}  // namespace
}  // namespace fsaic
