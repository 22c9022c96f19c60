// Dense vector kernels used by the Krylov solvers (the AXPY / dot-product /
// norm trio the paper lists as the CG building blocks besides SpMV).
#pragma once

#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fsaic {

/// y = alpha * x + y.
inline void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  FSAIC_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

/// y = x + beta * y (the "xpby" update used for CG search directions).
inline void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y) {
  FSAIC_REQUIRE(x.size() == y.size(), "xpby size mismatch");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[i] + beta * y[i];
  }
}

/// The fused pipelined-CG recurrence sweep: a single pass computing
///
///   p = u + beta * p;   s = w + beta * s;   r += malpha * s
///
/// (malpha is the pre-negated step, matching the historic
/// axpy(-alpha, s, r) call). Each element evaluates the exact expressions
/// of the three separate xpby/xpby/axpy sweeps in the same order, so the
/// fusion is bit-identical — it only removes two full memory passes and two
/// superstep barriers per iteration.
inline void fused_cg_sweep(std::span<const value_t> u, std::span<const value_t> w,
                           value_t beta, value_t malpha, std::span<value_t> p,
                           std::span<value_t> s, std::span<value_t> r) {
  FSAIC_REQUIRE(u.size() == p.size() && w.size() == s.size() &&
                    r.size() == p.size() && s.size() == p.size(),
                "fused_cg_sweep size mismatch");
  const std::size_t n = u.size();
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = u[i] + beta * p[i];
    const value_t si = w[i] + beta * s[i];
    s[i] = si;
    r[i] += malpha * si;
  }
}

/// Fused pair of AXPYs sharing one pass: x += alpha * d; r += malpha * q.
/// Element-wise identical to two separate axpy calls.
inline void fused_axpy_pair(value_t alpha, std::span<const value_t> d,
                            value_t malpha, std::span<const value_t> q,
                            std::span<value_t> x, std::span<value_t> r) {
  FSAIC_REQUIRE(d.size() == x.size() && q.size() == r.size() &&
                    x.size() == r.size(),
                "fused_axpy_pair size mismatch");
  const std::size_t n = d.size();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += alpha * d[i];
    r[i] += malpha * q[i];
  }
}

/// Euclidean inner product, summed in index order. Deliberately serial: an
/// OpenMP reduction would make the summation order (and so the bits) depend
/// on the team size, and every residual history is built from these dots.
[[nodiscard]] inline value_t dot(std::span<const value_t> x,
                                 std::span<const value_t> y) {
  FSAIC_REQUIRE(x.size() == y.size(), "dot size mismatch");
  value_t sum = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    sum += x[i] * y[i];
  }
  return sum;
}

/// Euclidean norm.
[[nodiscard]] inline value_t norm2(std::span<const value_t> x) {
  return std::sqrt(dot(x, x));
}

/// Largest absolute component.
[[nodiscard]] inline value_t norm_inf(std::span<const value_t> x) {
  value_t m = 0.0;
  for (value_t v : x) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

/// x *= alpha.
inline void scale(value_t alpha, std::span<value_t> x) {
  for (auto& v : x) {
    v *= alpha;
  }
}

}  // namespace fsaic
