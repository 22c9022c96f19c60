// LocalOperator: the per-rank SpMV kernel backend behind the distributed
// solve hot path.
//
// Every rank-local block of a DistCsr (the system matrix A and the
// preconditioner factors G / G^T alike) is applied through one of these.
// Two formats:
//
//   Csr  — the scalar reference. Bit-for-bit the historic kernels: the
//          interior/boundary subsets run the serial per-row loop, the full
//          apply runs fsaic::spmv over every row. This path defines
//          the numbers every fast path is differential-tested against.
//   Sell — SELL-C-sigma (sparse/sell.hpp): unit-stride SIMD layout. The
//          double-precision SELL kernel accumulates each row in the same
//          order as the CSR loop, so *residual histories do not change*
//          when the format is switched (enforced by EXPECT_EQ differential
//          tests).
//
// Precisions:
//
//   Double — value_t storage and arithmetic (the default, and the only
//            precision the system matrix A is ever applied in).
//   Single — float32 value storage, double accumulation. Meant for the
//            preconditioner factors only (the GPU FSAI line of work in
//            PAPERS.md applies low-precision factors inside a double
//            Krylov loop); results differ in rounding, so the solver-side
//            accuracy guardrail test pins the allowed drift.
//
// Selection: `fsaic solve --format {csr,sell}` or the FSAIC_FORMAT
// environment variable (the process-wide default read at distribute time);
// precision is opt-in per matrix via DistCsr::use_kernel, never from the
// environment (so FSAIC_FORMAT=sell test runs cannot silently degrade A).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace fsaic {

enum class OperatorFormat {
  Csr,   ///< scalar CSR — the bit-exact reference
  Sell,  ///< SELL-C-sigma — SIMD fast path, bit-identical in double
};

enum class FactorPrecision {
  Double,  ///< value_t storage (default)
  Single,  ///< float32 storage, double accumulation (factors only)
};

[[nodiscard]] std::string to_string(OperatorFormat format);
[[nodiscard]] std::string to_string(FactorPrecision precision);
[[nodiscard]] OperatorFormat operator_format_from_string(const std::string& s);
[[nodiscard]] FactorPrecision factor_precision_from_string(const std::string& s);

/// Which kernels a LocalOperator builds and runs.
struct KernelConfig {
  OperatorFormat format = OperatorFormat::Csr;
  FactorPrecision precision = FactorPrecision::Double;
  /// SELL geometry (ignored under Csr): C = SIMD width padded for, sigma =
  /// row-sorting window (multiple of chunk).
  index_t sell_chunk = 8;
  index_t sell_sigma = 64;
  /// Pick format and chunk per matrix from the padding ratio instead of the
  /// fields above (the `--format auto` seed): DistCsr::use_kernel scores
  /// SELL chunks {4, 8, 16, 32} over the matrix's row-length profile, keeps
  /// the least-padded one, and falls back to Csr when even that pads more
  /// than 1.25x. Resolved at distribute/use_kernel time — the stored config
  /// always reports the format actually built.
  bool autotune = false;

  bool operator==(const KernelConfig&) const = default;

  /// Config from FSAIC_FORMAT ("csr" | "sell" | "auto"; unset/empty ->
  /// csr). The precision always starts Double — mixed precision is a
  /// per-matrix decision made by the caller, never a process-wide env
  /// default.
  [[nodiscard]] static KernelConfig from_env();
};

/// The kernel realization of one rank-local CSR block. Immutable after
/// construction; copies share the (immutable) SELL storage. The CSR block
/// itself stays owned by the caller and is passed to every apply — the
/// reference path reads it directly, which keeps this object small and the
/// reference kernel literally the historic code.
class LocalOperator {
 public:
  /// CSR double reference (no auxiliary storage).
  LocalOperator() = default;

  /// Build for `a` with the interior/boundary row split of the overlap SpMV
  /// (together the subsets must enumerate the rows each apply targets).
  LocalOperator(const CsrMatrix& a, std::span<const index_t> interior,
                std::span<const index_t> boundary, const KernelConfig& config);

  [[nodiscard]] const KernelConfig& config() const { return config_; }

  /// Stored slots including SELL padding (== nnz under Csr).
  [[nodiscard]] offset_t padded_entries(const CsrMatrix& a) const;
  /// Padded slots / nnz (1.0 under Csr).
  [[nodiscard]] double padding_ratio(const CsrMatrix& a) const;

  /// y[rows] = (A x)[rows] for the interior subset; other y entries are
  /// untouched. `a` and `rows` must be the block and subset the operator
  /// was built from.
  void spmv_interior(const CsrMatrix& a, std::span<const index_t> rows,
                     std::span<const value_t> x, std::span<value_t> y) const;
  /// Same for the boundary subset.
  void spmv_boundary(const CsrMatrix& a, std::span<const index_t> rows,
                     std::span<const value_t> x, std::span<value_t> y) const;
  /// y = A x over all rows (the non-overlapping path).
  void spmv_all(const CsrMatrix& a, std::span<const index_t> interior,
                std::span<const index_t> boundary, std::span<const value_t> x,
                std::span<value_t> y) const;

 private:
  void apply_sell(const SellMatrix& sell, std::span<const value_t> x,
                  std::span<value_t> y) const;
  void csr_rows(const CsrMatrix& a, std::span<const index_t> rows,
                std::span<const value_t> x, std::span<value_t> y) const;

  KernelConfig config_;
  /// SELL realizations of the row subsets (null under Csr).
  std::shared_ptr<const SellMatrix> sell_interior_;
  std::shared_ptr<const SellMatrix> sell_boundary_;
  /// float32 copy of the CSR values (Csr + Single only), aligned with the
  /// block's value array.
  std::shared_ptr<const std::vector<float>> csr_values_f_;
};

}  // namespace fsaic
