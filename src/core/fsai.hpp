// FSAI factor computation (Algorithm 1, steps 2–3): given an SPD matrix A
// and a lower-triangular pattern S with full diagonal, compute the rows of G
// by solving the per-row Frobenius-minimization systems
//
//     A(S_i, S_i) ghat = e_i ,    g_i = ghat / sqrt(ghat[i]) ,
//
// which yields G with G A G^T ≈ I (Kolotilina–Yeremin / Chow). Each system
// is small, dense and SPD; rows are independent and solved in parallel
// through Executor::parallel_for.
//
// The local Gram matrices A(S_i, S_i) are assembled by a sparse *gather*:
// the columns of the pattern row are scattered into an epoch-tagged
// position-marker array, then each CSR row A(S_i[r], :) is streamed once and
// its entries land directly in dense row r — O(Σ nnz(A_row)) per pattern row
// instead of the m²·log(nnz) binary searches of entrywise CsrMatrix::at()
// lookups. Only the lower triangle is filled on the fast path (Cholesky
// reads nothing else); the full matrix is re-gathered for the rare fallback
// rows. This is the only assembly in the library; the entrywise at()
// assembly lives on as a test oracle (tests/core/gram_reference.hpp), and
// the two produce bit-identical factors.
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/pattern.hpp"

namespace fsaic {

class Executor;

struct FsaiFactorStats {
  /// Rows whose dense system fell back from Cholesky (still solved).
  index_t fallback_rows = 0;
  /// Rows whose system was singular; the row degraded to Jacobi scaling.
  index_t degenerate_rows = 0;
  /// Rows whose dense system was actually assembled and solved.
  index_t rows_solved = 0;
  /// Always 0: every row is solved. Kept only because the measured
  /// benchmark (perfbench/perfbench.cpp) still reads it.
  index_t rows_reused = 0;
  /// Matrix entries scattered into Gram systems by the gather assembly.
  std::int64_t gram_entries_gathered = 0;

  bool operator==(const FsaiFactorStats&) const = default;
};

struct FsaiComputeOptions {
  /// Row-loop engine (null -> the process-wide default executor). Factors
  /// are bit-identical for every executor and thread count.
  Executor* exec = nullptr;
};

/// Compute G on pattern `s` for SPD matrix `a`. `s` must be lower triangular,
/// square of a's size and contain every diagonal entry.
[[nodiscard]] CsrMatrix compute_fsai_factor(
    const CsrMatrix& a, const SparsityPattern& s,
    FsaiFactorStats* stats = nullptr, const FsaiComputeOptions& options = {});

/// The a-priori pattern of Algorithm 1 steps 1–2: lower triangle of the
/// pattern of Ã^N (Ã = threshold(A, tau)), with the full diagonal inserted.
[[nodiscard]] SparsityPattern fsai_base_pattern(const CsrMatrix& a,
                                                int sparsity_level,
                                                value_t prefilter_threshold);

}  // namespace fsaic
