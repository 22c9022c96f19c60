#include "core/fsai.hpp"

#include <algorithm>
#include <cmath>

#include "dense/dense_matrix.hpp"
#include "dense/factorizations.hpp"
#include "exec/executor.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

namespace {

/// Rows per parallel_for item. Rows are bucketed by pattern length within
/// a block, and only full groups of kLanes equal-length rows take the lane
/// kernels, so the block must be long enough to collect them on operators
/// whose row lengths spread widely (rgg2d). Chosen by measurement; see
/// docs/setup-performance.md.
constexpr index_t kBlockRows = 1024;
constexpr int kLanes = kCholeskyLanes;

// Per-thread scratch reused across rows: grow-only dense systems and the
// epoch-tagged position markers of the gather assembly. Each parallel_for
// slot owns one instance; stats accumulate lock-free and are summed after
// the loop's barrier.
struct RowScratch {
  DenseMatrix gram;  ///< lower-triangle Gram, Cholesky-factored in place
  DenseMatrix full;  ///< both triangles, re-gathered for fallback rows
  std::vector<value_t> rhs;
  /// kLanes interleaved lower-triangle Grams (cholesky_factor_lanes layout)
  /// and their solutions.
  std::vector<value_t> pack;
  std::vector<value_t> xpack;
  /// The current block's rows as (pattern length << 32 | offset) keys.
  std::vector<std::uint64_t> order;
  /// pos[c] = position of column c in the current pattern row, valid iff
  /// stamp[c] == epoch. Bumping the epoch invalidates all markers in O(1),
  /// so no per-row clearing pass is needed.
  std::vector<index_t> pos;
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  FsaiFactorStats stats;
};

/// Publish the pattern row's columns in the marker array (one epoch bump).
void mark_pattern_row(std::span<const index_t> cols, index_t n, RowScratch& s) {
  if (s.pos.size() < static_cast<std::size_t>(n)) {
    s.pos.resize(static_cast<std::size_t>(n));
    s.stamp.assign(static_cast<std::size_t>(n), 0);
    s.epoch = 0;
  }
  ++s.epoch;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    s.pos[static_cast<std::size_t>(cols[c])] = static_cast<index_t>(c);
    s.stamp[static_cast<std::size_t>(cols[c])] = s.epoch;
  }
}

/// Gather-assemble A(cols, cols) into zeroed column-major storage: entry
/// (r, c) lands at out[(c*m + r) * stride] (stride 1 is a DenseMatrix,
/// stride kLanes one lane of a pack). One streaming pass over the CSR rows
/// A(cols[r], :), entries landing via the position markers; entries of the
/// pattern absent from A stay 0, exactly as entrywise at() lookups give.
/// Requires mark_pattern_row to have been called for `cols`. Returns the
/// number of entries gathered.
std::int64_t gather_gram(const CsrMatrix& a, std::span<const index_t> cols,
                         bool lower_only, value_t* out, std::size_t stride,
                         const RowScratch& s) {
  const auto m = static_cast<std::size_t>(cols.size());
  std::int64_t gathered = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const auto acols = a.row_cols(cols[r]);
    const auto avals = a.row_vals(cols[r]);
    for (std::size_t k = 0; k < acols.size(); ++k) {
      const auto j = static_cast<std::size_t>(acols[k]);
      if (s.stamp[j] != s.epoch) continue;
      const auto c = static_cast<std::size_t>(s.pos[j]);
      if (lower_only && c > r) continue;
      out[(c * m + r) * stride] = avals[k];
      ++gathered;
    }
  }
  return gathered;
}

/// The dense solve of one row system, gather-assembled. Returns whether the
/// system was solved; the solution is left in s.rhs.
bool solve_local_system(const CsrMatrix& a, std::span<const index_t> cols,
                        RowScratch& s) {
  const auto m = static_cast<index_t>(cols.size());
  mark_pattern_row(cols, a.cols(), s);
  s.gram.resize(m, m);
  s.stats.gram_entries_gathered +=
      gather_gram(a, cols, /*lower_only=*/true, s.gram.data().data(), 1, s);
  s.rhs.resize(static_cast<std::size_t>(m));
  // Factor in place: only the lower triangle was assembled, and Cholesky
  // reads nothing else. The right-hand side is e_last (the diagonal closes
  // the pattern row).
  if (cholesky_factor(s.gram)) {
    cholesky_solve_last_unit(s.gram, s.rhs);
    return true;
  }
  ++s.stats.fallback_rows;
  // The LDL^T/LU fallback chain reads the full matrix; re-gather both
  // triangles, entries absent from A staying 0.
  s.full.resize(m, m);
  s.stats.gram_entries_gathered +=
      gather_gram(a, cols, /*lower_only=*/false, s.full.data().data(), 1, s);
  s.rhs.assign(static_cast<std::size_t>(m), 0.0);
  s.rhs[static_cast<std::size_t>(m - 1)] = 1.0;
  return solve_spd_system(s.full, s.rhs);
}

/// Write the normalized G row from the local solution ghat, whose entry k
/// is x[k * stride], or degrade the row to Jacobi scaling when the system
/// was singular or ghat_ii is not a positive finite number.
void write_fsai_row(const CsrMatrix& a, index_t i, bool solved,
                    const value_t* x, std::size_t stride,
                    std::span<value_t> out, FsaiFactorStats& stats) {
  const std::size_t m = out.size();
  const std::size_t diag_pos = m - 1;
  const value_t ghat_ii = solved ? x[diag_pos * stride] : 0.0;
  if (!solved || !(ghat_ii > 0.0) || !std::isfinite(ghat_ii)) {
    // Degenerate local system: degrade this row to Jacobi scaling, which
    // keeps G well defined (and SPD as a preconditioner).
    ++stats.degenerate_rows;
    const value_t aii = a.at(i, i);
    const value_t scale = aii > 0.0 ? 1.0 / std::sqrt(aii) : 1.0;
    for (std::size_t k = 0; k < m; ++k) {
      out[k] = (k == diag_pos) ? scale : 0.0;
    }
    return;
  }
  const value_t inv_sqrt = 1.0 / std::sqrt(ghat_ii);
  for (std::size_t k = 0; k < m; ++k) {
    out[k] = x[k * stride] * inv_sqrt;
  }
}

/// Solve one pattern row and write the normalized G row into `out`.
void solve_fsai_row(const CsrMatrix& a, index_t i, std::span<const index_t> cols,
                    std::span<value_t> out, RowScratch& s) {
  // The diagonal is the last pattern entry of a sorted lower-triangular row.
  FSAIC_CHECK(cols.back() == i, "diagonal must close each pattern row");
  ++s.stats.rows_solved;
  const bool solved = solve_local_system(a, cols, s);
  write_fsai_row(a, i, solved, s.rhs.data(), 1, out, s.stats);
}

/// Solve kLanes rows of equal pattern length m with the lane-batched
/// kernels. Each lane computes exactly the scalar path's bits; a group in
/// which any lane fails its pivot test is re-solved row by row, so such rows
/// take the scalar fallback chain and accounting unchanged.
void solve_fsai_lanes(const CsrMatrix& a, const SparsityPattern& p,
                      const index_t* rows, index_t m, CsrMatrix& g,
                      RowScratch& s) {
  const auto mm = static_cast<std::size_t>(m);
  // Zero only the lower triangles: the gather fills nothing else and the
  // lane kernels read nothing else.
  s.pack.resize(mm * mm * kLanes);
  for (std::size_t c = 0; c < mm; ++c) {
    std::fill(s.pack.begin() + static_cast<std::ptrdiff_t>((c * mm + c) * kLanes),
              s.pack.begin() + static_cast<std::ptrdiff_t>((c * mm + mm) * kLanes),
              0.0);
  }
  std::int64_t gathered = 0;
  for (int l = 0; l < kLanes; ++l) {
    const auto cols = p.row(rows[l]);
    FSAIC_CHECK(cols.back() == rows[l], "diagonal must close each pattern row");
    mark_pattern_row(cols, a.cols(), s);
    gathered += gather_gram(a, cols, /*lower_only=*/true, s.pack.data() + l,
                            kLanes, s);
  }
  if (!cholesky_factor_lanes(s.pack, m)) {
    for (int l = 0; l < kLanes; ++l) {
      solve_fsai_row(a, rows[l], p.row(rows[l]), g.row_vals(rows[l]), s);
    }
    return;
  }
  s.stats.gram_entries_gathered += gathered;
  s.xpack.resize(mm * kLanes);
  cholesky_solve_last_unit_lanes(s.pack, m, s.xpack);
  for (int l = 0; l < kLanes; ++l) {
    ++s.stats.rows_solved;
    write_fsai_row(a, rows[l], /*solved=*/true, s.xpack.data() + l, kLanes,
                   g.row_vals(rows[l]), s.stats);
  }
}

/// Solve rows [begin, end): bucket them by pattern length, solve every full
/// group of kLanes equal-length rows with the lane kernels and the leftover
/// rows of each length one by one.
void solve_fsai_block(const CsrMatrix& a, const SparsityPattern& p,
                      index_t begin, index_t end, CsrMatrix& g,
                      RowScratch& s) {
  s.order.clear();
  for (index_t i = begin; i < end; ++i) {
    s.order.push_back(static_cast<std::uint64_t>(p.row_nnz(i)) << 32 |
                      static_cast<std::uint64_t>(i - begin));
  }
  std::sort(s.order.begin(), s.order.end());
  const auto row_of = [&](std::size_t k) {
    return begin + static_cast<index_t>(s.order[k] & 0xffffffffu);
  };
  std::size_t k = 0;
  while (k < s.order.size()) {
    const std::uint64_t len = s.order[k] >> 32;
    std::size_t run_end = k;
    while (run_end < s.order.size() && s.order[run_end] >> 32 == len) ++run_end;
    for (; k + kLanes <= run_end; k += kLanes) {
      index_t rows[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        rows[l] = row_of(k + static_cast<std::size_t>(l));
      }
      solve_fsai_lanes(a, p, rows, static_cast<index_t>(len), g, s);
    }
    for (; k < run_end; ++k) {
      const index_t i = row_of(k);
      solve_fsai_row(a, i, p.row(i), g.row_vals(i), s);
    }
  }
}

void validate_fsai_inputs(const CsrMatrix& a, const SparsityPattern& s) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "FSAI requires a square matrix");
  FSAIC_REQUIRE(s.rows() == a.rows() && s.cols() == a.cols(),
                "pattern shape mismatch");
  FSAIC_REQUIRE(s.is_lower_triangular(), "FSAI pattern must be lower triangular");
  FSAIC_REQUIRE(s.has_full_diagonal(), "FSAI pattern must contain the diagonal");
}

}  // namespace

CsrMatrix compute_fsai_factor(const CsrMatrix& a, const SparsityPattern& s,
                              FsaiFactorStats* stats,
                              const FsaiComputeOptions& options) {
  validate_fsai_inputs(a, s);
  CsrMatrix g{s};
  Executor& exec = resolve_executor(options.exec);
  const int width = std::max(1, exec.parallel_for_width());
  std::vector<RowScratch> scratch(static_cast<std::size_t>(width));

  // Rows are independent — each writes only its own value range of `g`, and
  // its bits do not depend on whether it is solved alone or in a lane group
  // — so any parallel_for schedule produces identical bits.
  const index_t n = a.rows();
  const index_t nblocks = n / kBlockRows + (n % kBlockRows != 0 ? 1 : 0);
  exec.parallel_for(nblocks, [&](index_t b, int slot) {
    const index_t begin = b * kBlockRows;
    solve_fsai_block(a, s, begin, begin + std::min(kBlockRows, n - begin), g,
                     scratch[static_cast<std::size_t>(slot)]);
  });

  if (stats != nullptr) {
    *stats = {};
    for (const RowScratch& st : scratch) {
      stats->fallback_rows += st.stats.fallback_rows;
      stats->degenerate_rows += st.stats.degenerate_rows;
      stats->rows_solved += st.stats.rows_solved;
      stats->gram_entries_gathered += st.stats.gram_entries_gathered;
    }
  }
  return g;
}

SparsityPattern fsai_base_pattern(const CsrMatrix& a, int sparsity_level,
                                  value_t prefilter_threshold) {
  FSAIC_REQUIRE(sparsity_level >= 1, "sparsity level must be >= 1");
  const CsrMatrix filtered =
      prefilter_threshold > 0.0 ? threshold(a, prefilter_threshold) : a;
  SparsityPattern p = filtered.pattern();
  if (sparsity_level > 1) {
    p = p.symbolic_power(sparsity_level);
  }
  return p.lower_triangle().with_full_diagonal();
}

}  // namespace fsaic
