// Sparse matrix kernels and transformations: SpMV, transpose, thresholding,
// symmetric permutation. These operate on whole (undistributed) matrices;
// dist/ provides the rank-partitioned variants.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace fsaic {

/// y = A * x (serial over rows; the Executor parallelizes across ranks).
void spmv(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y);

/// y = A^T * x (scatter formulation, serial).
void spmv_transpose(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<value_t> y);

/// Explicit transpose.
[[nodiscard]] CsrMatrix transpose(const CsrMatrix& a);

/// Thresholding step of Algorithm 1: Ã keeps a_ij with
/// |a_ij| >= tau * sqrt(|a_ii * a_jj|), plus all diagonal entries. tau == 0
/// keeps everything except explicit zeros. The scale-independent diagonal
/// comparison follows Chow (2001).
[[nodiscard]] CsrMatrix threshold(const CsrMatrix& a, value_t tau);

/// Restriction of a to a sub-pattern p (entries of a outside p are dropped;
/// entries of p missing in a become explicit zeros).
[[nodiscard]] CsrMatrix restrict_to_pattern(const CsrMatrix& a,
                                            const SparsityPattern& p);

/// B = P A P^T for the permutation new_index[old] = perm[old]: entry (i, j)
/// of A lands at (perm[i], perm[j]). Used to renumber rows so each rank owns
/// a contiguous range.
[[nodiscard]] CsrMatrix permute_symmetric(const CsrMatrix& a,
                                          std::span<const index_t> perm);

/// Lower-triangular part (col <= row) of a, keeping values.
[[nodiscard]] CsrMatrix lower_triangle(const CsrMatrix& a);

/// C = A * B (Gustavson's algorithm).
[[nodiscard]] CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b);

/// Frobenius norm of (I - C) for a square matrix C; used by FSAI quality
/// tests on ||I - G L||_F-style diagnostics.
[[nodiscard]] value_t identity_residual_fro(const CsrMatrix& c);

}  // namespace fsaic
