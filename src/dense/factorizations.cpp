#include "dense/factorizations.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fsaic {

bool cholesky_factor(DenseMatrix& a) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const index_t n = a.rows();
  for (index_t k = 0; k < n; ++k) {
    value_t d = a(k, k);
    for (index_t j = 0; j < k; ++j) {
      d -= a(k, j) * a(k, j);
    }
    // Reject pivots that are non-positive or tiny relative to the original
    // diagonal: continuing would amplify rounding into garbage G rows.
    if (!(d > std::abs(a(k, k)) * 1e-14) || !std::isfinite(d)) return false;
    const value_t lkk = std::sqrt(d);
    a(k, k) = lkk;
    for (index_t i = k + 1; i < n; ++i) {
      value_t s = a(i, k);
      for (index_t j = 0; j < k; ++j) {
        s -= a(i, j) * a(k, j);
      }
      a(i, k) = s / lkk;
    }
  }
  return true;
}

void cholesky_solve(const DenseMatrix& a, std::span<value_t> b) {
  const index_t n = a.rows();
  FSAIC_REQUIRE(b.size() == static_cast<std::size_t>(n), "rhs size mismatch");
  // Forward: L y = b.
  for (index_t i = 0; i < n; ++i) {
    value_t s = b[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < i; ++j) {
      s -= a(i, j) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = s / a(i, i);
  }
  // Backward: L^T x = y.
  for (index_t i = n - 1; i >= 0; --i) {
    value_t s = b[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) {
      s -= a(j, i) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = s / a(i, i);
  }
}

void cholesky_solve_last_unit(const DenseMatrix& a, std::span<value_t> x) {
  const index_t n = a.rows();
  FSAIC_REQUIRE(n > 0 && x.size() == static_cast<std::size_t>(n),
                "solution size mismatch");
  // Forward: the exact result of L y = e_last.
  std::fill(x.begin(), x.end(), 0.0);
  x[static_cast<std::size_t>(n - 1)] = 1.0 / a(n - 1, n - 1);
  // Backward: L^T x = y, exactly as cholesky_solve.
  for (index_t i = n - 1; i >= 0; --i) {
    value_t s = x[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) {
      s -= a(j, i) * x[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(i)] = s / a(i, i);
  }
}

bool cholesky_factor_lanes(std::span<value_t> pack, index_t m) {
  constexpr int kL = kCholeskyLanes;
  const auto col_stride = static_cast<std::size_t>(m) * kL;
  FSAIC_REQUIRE(pack.size() >= col_stride * static_cast<std::size_t>(m),
                "lane pack too small");
  // Left-looking by columns: column k receives the updates of columns
  // j = 0..k-1 in ascending j, so each entry (i, k) accumulates
  // a(i,k) - a(i,0)*a(k,0) - a(i,1)*a(k,1) - ... in exactly the order of
  // cholesky_factor's dot-form inner loop. The innermost loop runs over the
  // contiguous rows x lanes of one column and carries no dependency.
  for (index_t k = 0; k < m; ++k) {
    value_t* const ck = pack.data() + static_cast<std::size_t>(k) * col_stride;
    const std::size_t kk = static_cast<std::size_t>(k) * kL;
    value_t diag[kL];
    for (int l = 0; l < kL; ++l) diag[l] = ck[kk + l];
    // Columns j are applied four at a time: each entry still subtracts
    // them one after another in ascending j, but column k streams through
    // the registers once per four updates.
    index_t j = 0;
    for (; j + 4 <= k; j += 4) {
      const value_t* const c0 =
          pack.data() + static_cast<std::size_t>(j) * col_stride;
      const value_t* const c1 = c0 + col_stride;
      const value_t* const c2 = c1 + col_stride;
      const value_t* const c3 = c2 + col_stride;
      value_t l0[kL], l1[kL], l2[kL], l3[kL];
      for (int l = 0; l < kL; ++l) {
        l0[l] = c0[kk + l];
        l1[l] = c1[kk + l];
        l2[l] = c2[kk + l];
        l3[l] = c3[kk + l];
      }
      for (std::size_t r = kk; r < col_stride; r += kL) {
        for (int l = 0; l < kL; ++l) {
          value_t v = ck[r + l];
          v -= c0[r + l] * l0[l];
          v -= c1[r + l] * l1[l];
          v -= c2[r + l] * l2[l];
          v -= c3[r + l] * l3[l];
          ck[r + l] = v;
        }
      }
    }
    for (; j < k; ++j) {
      const value_t* const cj =
          pack.data() + static_cast<std::size_t>(j) * col_stride;
      value_t lkj[kL];
      for (int l = 0; l < kL; ++l) lkj[l] = cj[kk + l];
      for (std::size_t r = kk; r < col_stride; r += kL) {
        for (int l = 0; l < kL; ++l) ck[r + l] -= cj[r + l] * lkj[l];
      }
    }
    value_t lkk[kL];
    for (int l = 0; l < kL; ++l) {
      const value_t d = ck[kk + l];
      if (!(d > std::abs(diag[l]) * 1e-14) || !std::isfinite(d)) return false;
      lkk[l] = std::sqrt(d);
      ck[kk + l] = lkk[l];
    }
    for (std::size_t r = kk + kL; r < col_stride; r += kL) {
      for (int l = 0; l < kL; ++l) ck[r + l] /= lkk[l];
    }
  }
  return true;
}

void cholesky_solve_last_unit_lanes(std::span<const value_t> pack, index_t m,
                                    std::span<value_t> x) {
  constexpr int kL = kCholeskyLanes;
  const auto col_stride = static_cast<std::size_t>(m) * kL;
  FSAIC_REQUIRE(m > 0 && x.size() == col_stride, "solution size mismatch");
  std::fill(x.begin(), x.end(), 0.0);
  const std::size_t last = static_cast<std::size_t>(m - 1) * kL;
  const value_t* const cl =
      pack.data() + static_cast<std::size_t>(m - 1) * col_stride;
  for (int l = 0; l < kL; ++l) x[last + l] = 1.0 / cl[last + l];
  // Backward in dot form, j ascending per entry; L(j, i) for j > i is the
  // contiguous tail of column i.
  for (index_t i = m - 1; i >= 0; --i) {
    const value_t* const ci = pack.data() + static_cast<std::size_t>(i) * col_stride;
    const std::size_t ii = static_cast<std::size_t>(i) * kL;
    value_t s[kL];
    for (int l = 0; l < kL; ++l) s[l] = x[ii + l];
    for (std::size_t r = ii + kL; r < col_stride; r += kL) {
      for (int l = 0; l < kL; ++l) s[l] -= ci[r + l] * x[r + l];
    }
    for (int l = 0; l < kL; ++l) x[ii + l] = s[l] / ci[ii + l];
  }
}

bool ldlt_factor(DenseMatrix& a) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "LDL^T requires a square matrix");
  const index_t n = a.rows();
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < j; ++k) {
      v[static_cast<std::size_t>(k)] = a(j, k) * a(k, k);
    }
    value_t d = a(j, j);
    for (index_t k = 0; k < j; ++k) {
      d -= a(j, k) * v[static_cast<std::size_t>(k)];
    }
    if (d == 0.0 || !std::isfinite(d)) return false;
    a(j, j) = d;
    for (index_t i = j + 1; i < n; ++i) {
      value_t s = a(i, j);
      for (index_t k = 0; k < j; ++k) {
        s -= a(i, k) * v[static_cast<std::size_t>(k)];
      }
      a(i, j) = s / d;
    }
  }
  return true;
}

void ldlt_solve(const DenseMatrix& a, std::span<value_t> b) {
  const index_t n = a.rows();
  FSAIC_REQUIRE(b.size() == static_cast<std::size_t>(n), "rhs size mismatch");
  // L y = b (unit lower).
  for (index_t i = 0; i < n; ++i) {
    value_t s = b[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < i; ++j) {
      s -= a(i, j) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = s;
  }
  // D z = y.
  for (index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] /= a(i, i);
  }
  // L^T x = z.
  for (index_t i = n - 1; i >= 0; --i) {
    value_t s = b[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) {
      s -= a(j, i) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = s;
  }
}

bool lu_factor(DenseMatrix& a, std::span<index_t> pivots) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  const index_t n = a.rows();
  FSAIC_REQUIRE(pivots.size() == static_cast<std::size_t>(n), "pivot size mismatch");
  for (index_t k = 0; k < n; ++k) {
    index_t p = k;
    value_t maxval = std::abs(a(k, k));
    for (index_t i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > maxval) {
        maxval = std::abs(a(i, k));
        p = i;
      }
    }
    if (maxval == 0.0 || !std::isfinite(maxval)) return false;
    pivots[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      for (index_t j = 0; j < n; ++j) {
        std::swap(a(k, j), a(p, j));
      }
    }
    const value_t inv = 1.0 / a(k, k);
    for (index_t i = k + 1; i < n; ++i) {
      const value_t lik = a(i, k) * inv;
      a(i, k) = lik;
      for (index_t j = k + 1; j < n; ++j) {
        a(i, j) -= lik * a(k, j);
      }
    }
  }
  return true;
}

void lu_solve(const DenseMatrix& a, std::span<const index_t> pivots,
              std::span<value_t> b) {
  const index_t n = a.rows();
  FSAIC_REQUIRE(b.size() == static_cast<std::size_t>(n), "rhs size mismatch");
  for (index_t k = 0; k < n; ++k) {
    const index_t p = pivots[static_cast<std::size_t>(k)];
    if (p != k) std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(p)]);
  }
  for (index_t i = 0; i < n; ++i) {
    value_t s = b[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < i; ++j) {
      s -= a(i, j) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = s;
  }
  for (index_t i = n - 1; i >= 0; --i) {
    value_t s = b[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) {
      s -= a(i, j) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = s / a(i, i);
  }
}

bool solve_spd_system(DenseMatrix a, std::span<value_t> b) {
  DenseMatrix chol = a;
  if (cholesky_factor(chol)) {
    cholesky_solve(chol, b);
    return true;
  }
  DenseMatrix ldlt = a;
  if (ldlt_factor(ldlt)) {
    ldlt_solve(ldlt, b);
    return true;
  }
  std::vector<index_t> pivots(static_cast<std::size_t>(a.rows()));
  if (lu_factor(a, pivots)) {
    lu_solve(a, pivots, b);
    return true;
  }
  return false;
}

}  // namespace fsaic
