// The CG solvers update their vectors only through the fused superstep
// wrappers dist_fused_cg_sweep / dist_fused_axpy_pair. These tests are the
// oracle for them: the separate dist_xpby / dist_axpy sequences they replace
// must give the same bits, element by element, on the sequential executor
// and on thread teams.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "dist/dist_csr.hpp"
#include "exec/executor.hpp"
#include "exec/threaded_executor.hpp"

namespace fsaic {
namespace {

/// Uneven rank sizes, including an empty rank, so block boundaries do not
/// line up with any SIMD width.
Layout test_layout() {
  return Layout::from_part_sizes(std::vector<index_t>{37, 0, 101, 64, 13});
}

DistVector random_vec(const Layout& l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> g(static_cast<std::size_t>(l.global_size()));
  for (auto& v : g) v = rng.next_uniform(-1.0, 1.0);
  return DistVector(l, g);
}

/// nthreads == 0 -> SeqExecutor, else a ThreadedExecutor of that size.
std::unique_ptr<Executor> make_executor(int nthreads) {
  if (nthreads == 0) return std::make_unique<SeqExecutor>();
  return std::make_unique<ThreadedExecutor>(nthreads);
}

class FusedSweepsOracle : public ::testing::TestWithParam<int> {};

TEST_P(FusedSweepsOracle, CgSweepMatchesSeparateXpbyXpbyAxpy) {
  const Layout l = test_layout();
  const auto u = random_vec(l, 1);
  const auto w = random_vec(l, 2);
  const value_t beta = 0.37;
  const value_t malpha = -1.13;
  const auto p0 = random_vec(l, 3);
  const auto s0 = random_vec(l, 4);
  const auto r0 = random_vec(l, 5);

  SeqExecutor seq;
  DistVector p_ref = p0, s_ref = s0, r_ref = r0;
  dist_xpby(u, beta, p_ref, &seq);
  dist_xpby(w, beta, s_ref, &seq);
  dist_axpy(malpha, s_ref, r_ref, &seq);

  const auto exec = make_executor(GetParam());
  DistVector p = p0, s = s0, r = r0;
  dist_fused_cg_sweep(u, w, beta, malpha, p, s, r, exec.get());
  EXPECT_EQ(p.to_global(), p_ref.to_global());
  EXPECT_EQ(s.to_global(), s_ref.to_global());
  EXPECT_EQ(r.to_global(), r_ref.to_global());

  // Two sweeps in a row: the second reads the first's outputs.
  dist_xpby(u, beta, p_ref, &seq);
  dist_xpby(w, beta, s_ref, &seq);
  dist_axpy(malpha, s_ref, r_ref, &seq);
  dist_fused_cg_sweep(u, w, beta, malpha, p, s, r, exec.get());
  EXPECT_EQ(p.to_global(), p_ref.to_global());
  EXPECT_EQ(s.to_global(), s_ref.to_global());
  EXPECT_EQ(r.to_global(), r_ref.to_global());
}

TEST_P(FusedSweepsOracle, AxpyPairMatchesSeparateAxpys) {
  const Layout l = test_layout();
  const auto d = random_vec(l, 6);
  const auto q = random_vec(l, 7);
  const value_t alpha = 0.251;
  const auto x0 = random_vec(l, 8);
  const auto r0 = random_vec(l, 9);

  SeqExecutor seq;
  DistVector x_ref = x0, r_ref = r0;
  dist_axpy(alpha, d, x_ref, &seq);
  dist_axpy(-alpha, q, r_ref, &seq);

  const auto exec = make_executor(GetParam());
  DistVector x = x0, r = r0;
  dist_fused_axpy_pair(alpha, d, -alpha, q, x, r, exec.get());
  EXPECT_EQ(x.to_global(), x_ref.to_global());
  EXPECT_EQ(r.to_global(), r_ref.to_global());
}

INSTANTIATE_TEST_SUITE_P(Executors, FusedSweepsOracle,
                         ::testing::Values(0, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("Seq")
                                      : "Threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace fsaic
