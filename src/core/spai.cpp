#include "core/spai.hpp"

#include <algorithm>
#include <cstdint>

#include "dense/dense_matrix.hpp"
#include "dense/factorizations.hpp"
#include "exec/executor.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

namespace {

// Per-thread scratch of the gather assembly: grow-only dense system plus two
// epoch-tagged marker sets — one over A's columns (positions of the pattern
// row, drives the rhs gather) and one over A's rows (the scattered values of
// row_u(A^T), drives the Gram dot products). A single monotone epoch counter
// serves both; every mark uses a fresh value, so stale stamps never match.
struct SpaiScratch {
  DenseMatrix gram;
  std::vector<value_t> rhs;
  std::vector<index_t> pos;
  std::vector<std::uint64_t> pstamp;
  std::vector<value_t> uval;
  std::vector<std::uint64_t> ustamp;
  std::uint64_t epoch = 0;
};

/// One column solve via scatter-stream assembly. The Gram dot products
/// accumulate the common-column terms in the same ascending order with the
/// same operand order as a two-pointer merge-join of the A^T rows, and the
/// rhs gather lands the same stored entries at() would return, so the
/// columns are bit-identical to the entrywise test oracle.
void solve_spai_column(const CsrMatrix& a, const CsrMatrix& at, index_t j,
                       std::span<const index_t> cols, std::span<value_t> out,
                       SpaiScratch& sc) {
  const auto k = static_cast<index_t>(cols.size());
  if (sc.pos.size() < static_cast<std::size_t>(a.cols())) {
    sc.pos.resize(static_cast<std::size_t>(a.cols()));
    sc.pstamp.assign(static_cast<std::size_t>(a.cols()), 0);
  }
  if (sc.uval.size() < static_cast<std::size_t>(a.rows())) {
    sc.uval.resize(static_cast<std::size_t>(a.rows()));
    sc.ustamp.assign(static_cast<std::size_t>(a.rows()), 0);
  }

  // rhs_u = column_u(A) . e_j = A(j, col_u): mark the pattern row's columns,
  // then one stream over A's row j lands the stored entries.
  const std::uint64_t pmark = ++sc.epoch;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    sc.pos[static_cast<std::size_t>(cols[c])] = static_cast<index_t>(c);
    sc.pstamp[static_cast<std::size_t>(cols[c])] = pmark;
  }
  sc.rhs.assign(static_cast<std::size_t>(k), 0.0);
  {
    const auto jcols = a.row_cols(j);
    const auto jvals = a.row_vals(j);
    for (std::size_t p = 0; p < jcols.size(); ++p) {
      const auto c = static_cast<std::size_t>(jcols[p]);
      if (sc.pstamp[c] == pmark) {
        sc.rhs[static_cast<std::size_t>(sc.pos[c])] = jvals[p];
      }
    }
  }

  // Gram(u, v) = row_u(A^T) . row_v(A^T): scatter row u once, then each
  // row v streams past it.
  sc.gram.resize(k, k);
  for (index_t u = 0; u < k; ++u) {
    const auto ucols = at.row_cols(cols[static_cast<std::size_t>(u)]);
    const auto uvals = at.row_vals(cols[static_cast<std::size_t>(u)]);
    const std::uint64_t umark = ++sc.epoch;
    for (std::size_t p = 0; p < ucols.size(); ++p) {
      sc.uval[static_cast<std::size_t>(ucols[p])] = uvals[p];
      sc.ustamp[static_cast<std::size_t>(ucols[p])] = umark;
    }
    for (index_t v = u; v < k; ++v) {
      const auto vcols = at.row_cols(cols[static_cast<std::size_t>(v)]);
      const auto vvals = at.row_vals(cols[static_cast<std::size_t>(v)]);
      value_t dot = 0.0;
      for (std::size_t p = 0; p < vcols.size(); ++p) {
        const auto c = static_cast<std::size_t>(vcols[p]);
        if (sc.ustamp[c] == umark) {
          dot += sc.uval[c] * vvals[p];
        }
      }
      sc.gram(u, v) = dot;
      sc.gram(v, u) = dot;
    }
  }

  if (!solve_spd_system(sc.gram, sc.rhs)) {
    // Degenerate column: fall back to Jacobi scaling.
    std::fill(sc.rhs.begin(), sc.rhs.end(), 0.0);
    const auto it = std::lower_bound(cols.begin(), cols.end(), j);
    if (it != cols.end() && *it == j && a.at(j, j) != 0.0) {
      sc.rhs[static_cast<std::size_t>(it - cols.begin())] = 1.0 / a.at(j, j);
    }
  }
  std::copy(sc.rhs.begin(), sc.rhs.end(), out.begin());
}

}  // namespace

CsrMatrix compute_spai(const CsrMatrix& a, const SparsityPattern& s,
                       const SpaiComputeOptions& options) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "SPAI requires a square matrix");
  FSAIC_REQUIRE(s.rows() == a.rows() && s.cols() == a.cols(),
                "pattern shape mismatch");
  // Column-oriented: m_j minimizes ||e_j - A m_j|| over the columns S_j of
  // the pattern's *row* j (pattern assumed structurally symmetric, as for
  // the SPD systems this library targets). The normal equations
  //   (A_{:,S})^T (A_{:,S}) m = (A_{:,S})^T e_j
  // only involve the rows J where A_{:,S} is nonzero; the Gram matrix is
  // assembled through A^T A restricted to S x S.
  const CsrMatrix at = transpose(a);
  CsrMatrix m{s};

  Executor& exec = resolve_executor(options.exec);
  const int width = std::max(1, exec.parallel_for_width());
  std::vector<SpaiScratch> scratch(static_cast<std::size_t>(width));

  exec.parallel_for(a.rows(), [&](index_t j, int slot) {
    const auto cols = s.row(j);
    if (cols.empty()) return;
    solve_spai_column(a, at, j, cols, m.row_vals(j),
                      scratch[static_cast<std::size_t>(slot)]);
  });
  return m;
}

SpaiPreconditioner::SpaiPreconditioner(const CsrMatrix& a, const Layout& layout) {
  const CsrMatrix m = compute_spai(a, a.pattern());
  // Symmetrize so CG's requirement of a symmetric preconditioner holds.
  const CsrMatrix mt = transpose(m);
  CooBuilder sym(m.rows(), m.cols());
  sym.reserve(2 * static_cast<std::size_t>(m.nnz()));
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      sym.add(i, cols[k], 0.5 * vals[k]);
    }
    const auto tcols = mt.row_cols(i);
    const auto tvals = mt.row_vals(i);
    for (std::size_t k = 0; k < tcols.size(); ++k) {
      sym.add(i, tcols[k], 0.5 * tvals[k]);
    }
  }
  m_dist_ = DistCsr::distribute(sym.to_csr(), layout);
}

void SpaiPreconditioner::apply(const DistVector& r, DistVector& z,
                               CommStats* stats, Executor* exec) const {
  m_dist_.spmv(r, z, stats, nullptr, exec);
}

}  // namespace fsaic
