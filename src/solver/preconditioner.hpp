// Preconditioner interface and simple baselines (Identity, Jacobi,
// Block-Jacobi). The FSAI family lives in core/ and implements the same
// interface through FactorizedPreconditioner.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dist/comm_stats.hpp"
#include "dist/dist_csr.hpp"
#include "dist/dist_vector.hpp"

namespace fsaic {

class Executor;
class TraceRecorder;

/// Application-side interface: z = M r. The executor is per-call context
/// like `stats`: implementations run their per-rank work as supersteps on
/// it (nullptr -> the process-wide default), so a threaded solve threads
/// its preconditioner applications too.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  virtual void apply(const DistVector& r, DistVector& z,
                     CommStats* stats = nullptr,
                     Executor* exec = nullptr) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Attach a borrowed trace recorder; implementations with internal
  /// structure (e.g. the G / G^T factor applications) emit sub-phase events
  /// into it. Null detaches.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  [[nodiscard]] TraceRecorder* trace() const { return trace_; }

 private:
  TraceRecorder* trace_ = nullptr;
};

/// z = r (plain CG).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const DistVector& r, DistVector& z, CommStats* stats = nullptr,
             Executor* exec = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "identity"; }
};

/// z = D^{-1} r with D = diag(A).
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const DistCsr& a);

  void apply(const DistVector& r, DistVector& z, CommStats* stats = nullptr,
             Executor* exec = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "jacobi"; }

 private:
  DistVector inv_diag_;
};

/// Dense-Cholesky block-diagonal preconditioner: the local unknowns of each
/// rank are split into blocks of `block_size` consecutive rows and each block
/// of A restricted to them is factorized. Communication-free by design.
class BlockJacobiPreconditioner final : public Preconditioner {
 public:
  BlockJacobiPreconditioner(const DistCsr& a, index_t block_size);

  void apply(const DistVector& r, DistVector& z, CommStats* stats = nullptr,
             Executor* exec = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "block-jacobi"; }

 private:
  struct Block {
    index_t first = 0;    ///< first local row
    index_t size = 0;
    std::vector<value_t> chol;  ///< packed lower Cholesky factor, row-major
  };
  Layout layout_;
  std::vector<std::vector<Block>> rank_blocks_;
};

/// z = G^T (G r): the factorized approximate inverse application the FSAI
/// family uses. Owns the distributed factors.
class FactorizedPreconditioner final : public Preconditioner {
 public:
  FactorizedPreconditioner(DistCsr g, DistCsr gt, std::string label);

  void apply(const DistVector& r, DistVector& z, CommStats* stats = nullptr,
             Executor* exec = nullptr) const override;
  [[nodiscard]] std::string name() const override { return label_; }

  [[nodiscard]] const DistCsr& g() const { return g_; }
  [[nodiscard]] const DistCsr& gt() const { return gt_; }

  /// Set the storage precision of both factors (unlike the system matrix,
  /// optionally Single — the mixed-precision mode stores the factors in
  /// float32 while every CG vector stays double).
  void use_kernel(FactorPrecision precision) {
    g_.use_kernel(precision);
    gt_.use_kernel(precision);
  }

 private:
  DistCsr g_;
  DistCsr gt_;
  std::string label_;
};

}  // namespace fsaic
