// Dense factorizations for the local FSAI systems: Cholesky (the common
// case: A(S_i,S_i) is SPD when A is), LDL^T (robust to tiny pivots from
// aggressive thresholding), and partially pivoted LU (general fallback used
// by tests and the generators).
#pragma once

#include <span>

#include "dense/dense_matrix.hpp"

namespace fsaic {

/// In-place lower Cholesky: on success `a`'s lower triangle holds L with
/// A = L L^T. Returns false if a pivot is not safely positive (the matrix is
/// then left partially overwritten — callers must refactor a fresh copy).
[[nodiscard]] bool cholesky_factor(DenseMatrix& a);

/// Solve L L^T x = b given the Cholesky factor in the lower triangle of `a`.
void cholesky_solve(const DenseMatrix& a, std::span<value_t> b);

/// cholesky_solve with b = e_last, the FSAI row right-hand side, writing x
/// into `x` (size n). Forward substitution on e_last has the exact result
/// y = e_last / l_nn with every other entry +0 (a successful cholesky_factor
/// leaves L finite, so each l_ij * (+0) is a signed zero and 0 - (±0) = +0),
/// so only the backward half runs. Bit-identical to cholesky_solve on e_last.
void cholesky_solve_last_unit(const DenseMatrix& a, std::span<value_t> x);

/// Systems the lane-batched kernels below factor and solve at once.
inline constexpr int kCholeskyLanes = 4;

/// Lane-batched cholesky_factor of kCholeskyLanes m x m systems stored
/// interleaved: entry (r, c) of lane l lives at pack[(c*m + r)*4 + l], the
/// column-major DenseMatrix layout with the lanes innermost. Only the lower
/// triangle is read. Every lane performs exactly cholesky_factor's operation
/// sequence on its own system (dot form, j ascending, the same pivot test),
/// so a lane's L is bit-identical to the scalar factor; the lanes only give
/// the compiled code independent dependency chains. Returns false as soon as
/// any lane fails its pivot test, leaving `pack` partially overwritten.
[[nodiscard]] bool cholesky_factor_lanes(std::span<value_t> pack, index_t m);

/// cholesky_solve_last_unit for every lane of a factor from
/// cholesky_factor_lanes: lane l's x_r lands at x[r*4 + l] (size m*4).
void cholesky_solve_last_unit_lanes(std::span<const value_t> pack, index_t m,
                                    std::span<value_t> x);

/// In-place LDL^T without pivoting: lower triangle holds unit L, diagonal
/// holds D. Returns false on an exactly-zero pivot.
[[nodiscard]] bool ldlt_factor(DenseMatrix& a);

/// Solve L D L^T x = b given an LDL^T factorization.
void ldlt_solve(const DenseMatrix& a, std::span<value_t> b);

/// In-place LU with partial pivoting; `pivots[k]` records the row swapped
/// into position k. Returns false if the matrix is numerically singular.
[[nodiscard]] bool lu_factor(DenseMatrix& a, std::span<index_t> pivots);

/// Solve P L U x = b given an LU factorization.
void lu_solve(const DenseMatrix& a, std::span<const index_t> pivots,
              std::span<value_t> b);

/// Driver used by the FSAI row solves: try Cholesky, fall back to LDL^T,
/// then to LU. `a` is consumed (overwritten). Returns false only if all
/// three factorizations fail (singular local system).
[[nodiscard]] bool solve_spd_system(DenseMatrix a, std::span<value_t> b);

}  // namespace fsaic
