// Test oracles for the FSAI and SPAI setup: the entrywise Gram assembly the
// library's gather path replaced, kept here so tests can assert that the
// shipped factors are bit-identical to it.
//
// Both oracles assemble every dense system from CsrMatrix::at() lookups (and,
// for SPAI, merge-joined columns of A^T), one row or column at a time on the
// calling thread, and then run the same dense solve sequence as the library:
// FSAI tries Cholesky, falls back to solve_spd_system, and degrades a
// singular row to Jacobi scaling; SPAI solves its normal equations with
// solve_spd_system and degrades a singular column to 1/a_jj.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/fsai.hpp"
#include "dense/dense_matrix.hpp"
#include "dense/factorizations.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "sparse/pattern.hpp"

namespace fsaic::oracle {

/// G on lower-triangular pattern `s` (full diagonal), one entrywise-assembled
/// system per row. Fills fallback_rows, degenerate_rows and rows_solved of
/// `stats`; it gathers nothing, so gram_entries_gathered stays 0.
inline CsrMatrix reference_fsai_factor(const CsrMatrix& a,
                                       const SparsityPattern& s,
                                       FsaiFactorStats* stats = nullptr) {
  FsaiFactorStats st;
  CsrMatrix g{s};
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = s.row(i);
    const auto m = static_cast<index_t>(cols.size());
    const index_t diag_pos = m - 1;
    ++st.rows_solved;

    DenseMatrix local(m, m);
    for (index_t r = 0; r < m; ++r) {
      for (index_t c = 0; c < m; ++c) {
        local(r, c) = a.at(cols[static_cast<std::size_t>(r)],
                           cols[static_cast<std::size_t>(c)]);
      }
    }
    std::vector<value_t> rhs(static_cast<std::size_t>(m), 0.0);
    rhs[static_cast<std::size_t>(diag_pos)] = 1.0;
    bool solved = false;
    {
      DenseMatrix chol = local;
      if (cholesky_factor(chol)) {
        cholesky_solve(chol, rhs);
        solved = true;
      }
    }
    if (!solved) {
      ++st.fallback_rows;
      std::fill(rhs.begin(), rhs.end(), 0.0);
      rhs[static_cast<std::size_t>(diag_pos)] = 1.0;
      solved = solve_spd_system(local, rhs);
    }

    auto out = g.row_vals(i);
    const value_t ghat_ii = solved ? rhs[static_cast<std::size_t>(diag_pos)] : 0.0;
    if (!solved || !(ghat_ii > 0.0) || !std::isfinite(ghat_ii)) {
      ++st.degenerate_rows;
      const value_t aii = a.at(i, i);
      const value_t scale = aii > 0.0 ? 1.0 / std::sqrt(aii) : 1.0;
      for (index_t k = 0; k < m; ++k) {
        out[static_cast<std::size_t>(k)] = (k == diag_pos) ? scale : 0.0;
      }
      continue;
    }
    const value_t inv_sqrt = 1.0 / std::sqrt(ghat_ii);
    for (index_t k = 0; k < m; ++k) {
      out[static_cast<std::size_t>(k)] =
          rhs[static_cast<std::size_t>(k)] * inv_sqrt;
    }
  }
  if (stats != nullptr) *stats = st;
  return g;
}

/// M on pattern `s`, column j minimizing ||e_j - A m_j||_2 over the columns
/// of pattern row j, with Gram(u, v) = row_u(A^T) . row_v(A^T) merge-joined.
inline CsrMatrix reference_spai(const CsrMatrix& a, const SparsityPattern& s) {
  const CsrMatrix at = transpose(a);
  CsrMatrix m{s};
  for (index_t j = 0; j < a.rows(); ++j) {
    const auto cols = s.row(j);
    if (cols.empty()) continue;
    const auto k = static_cast<index_t>(cols.size());
    DenseMatrix gram(k, k);
    for (index_t u = 0; u < k; ++u) {
      const auto ucols = at.row_cols(cols[static_cast<std::size_t>(u)]);
      const auto uvals = at.row_vals(cols[static_cast<std::size_t>(u)]);
      for (index_t v = u; v < k; ++v) {
        const auto vcols = at.row_cols(cols[static_cast<std::size_t>(v)]);
        const auto vvals = at.row_vals(cols[static_cast<std::size_t>(v)]);
        value_t dot = 0.0;
        std::size_t pu = 0;
        std::size_t pv = 0;
        while (pu < ucols.size() && pv < vcols.size()) {
          if (ucols[pu] == vcols[pv]) {
            dot += uvals[pu] * vvals[pv];
            ++pu;
            ++pv;
          } else if (ucols[pu] < vcols[pv]) {
            ++pu;
          } else {
            ++pv;
          }
        }
        gram(u, v) = dot;
        gram(v, u) = dot;
      }
    }
    // rhs_u = column_u(A) . e_j = A(j, col_u).
    std::vector<value_t> rhs(static_cast<std::size_t>(k));
    for (index_t u = 0; u < k; ++u) {
      rhs[static_cast<std::size_t>(u)] = a.at(j, cols[static_cast<std::size_t>(u)]);
    }
    if (!solve_spd_system(std::move(gram), rhs)) {
      std::fill(rhs.begin(), rhs.end(), 0.0);
      const auto it = std::lower_bound(cols.begin(), cols.end(), j);
      if (it != cols.end() && *it == j && a.at(j, j) != 0.0) {
        rhs[static_cast<std::size_t>(it - cols.begin())] = 1.0 / a.at(j, j);
      }
    }
    std::copy(rhs.begin(), rhs.end(), m.row_vals(j).begin());
  }
  return m;
}

}  // namespace fsaic::oracle
