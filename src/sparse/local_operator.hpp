// LocalOperator: the per-rank SpMV kernel behind the distributed solve hot
// path.
//
// Every rank-local block of a DistCsr (the system matrix A and the
// preconditioner factors G / G^T alike) is applied through one of these.
// The kernel is the scalar CSR row loop: each row is one sequential add
// chain in ascending column order, which is what keeps residual histories
// bit-identical across executors, thread counts and rank counts. The apply
// is bandwidth-bound at 12 bytes per stored entry (docs/kernel-performance.md),
// so the one lever left is fewer bytes per entry:
//
//   Double — value_t storage and arithmetic (the default, and the only
//            precision the system matrix A is ever applied in).
//   Single — float32 value storage, double accumulation. Meant for the
//            preconditioner factors only (the GPU FSAI line of work in
//            PAPERS.md applies low-precision factors inside a double
//            Krylov loop); results differ in rounding, so the solver-side
//            accuracy guardrail test pins the allowed drift.
//
// Precision is opt-in per matrix via DistCsr::use_kernel, never from the
// environment.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace fsaic {

enum class FactorPrecision {
  Double,  ///< value_t storage (default)
  Single,  ///< float32 storage, double accumulation (factors only)
};

[[nodiscard]] std::string to_string(FactorPrecision precision);
[[nodiscard]] FactorPrecision factor_precision_from_string(const std::string& s);

/// The kernel realization of one rank-local CSR block. Immutable after
/// construction; copies share the (immutable) float32 values. The CSR block
/// itself stays owned by the caller and is passed to every apply.
class LocalOperator {
 public:
  /// Build for `a`; Single keeps a float32 copy of its values, Double
  /// stores nothing.
  LocalOperator(const CsrMatrix& a, FactorPrecision precision);

  [[nodiscard]] FactorPrecision precision() const {
    return values_f_ != nullptr ? FactorPrecision::Single
                                : FactorPrecision::Double;
  }

  /// y[rows] = (A x)[rows]; other y entries are untouched. `a` must be the
  /// block the operator was built from. The overlap SpMV calls this for the
  /// interior rows while the halo is in flight and for the boundary rows
  /// after the drain.
  void spmv_rows(const CsrMatrix& a, std::span<const index_t> rows,
                 std::span<const value_t> x, std::span<value_t> y) const;
  /// y = A x over all rows (the non-overlapping path). Row sums are
  /// independent, so this matches spmv_rows bit for bit.
  void spmv_all(const CsrMatrix& a, std::span<const value_t> x,
                std::span<value_t> y) const;

 private:
  /// float32 copy of the block's values (Single only), aligned with its
  /// value array.
  std::shared_ptr<const std::vector<float>> values_f_;
};

}  // namespace fsaic
