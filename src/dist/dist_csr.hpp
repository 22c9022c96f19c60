// Distributed CSR matrix: each simulated rank holds its block of rows with
// columns renumbered to [local | ghost] form, plus the halo maps that drive
// the (instrumented) halo update before every SpMV. This mirrors the
// standard MPI decomposition the paper builds on: "local entries" couple
// local unknowns, "halo entries" couple local with halo unknowns.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dist/comm_stats.hpp"
#include "dist/dist_vector.hpp"
#include "dist/layout.hpp"
#include "sparse/csr.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/local_operator.hpp"

namespace fsaic {

class TraceRecorder;
class Executor;
class HaloExchanger;
struct HaloPlan;

/// One rank's rows of a global operator in raw CSR form with GLOBAL column
/// ids (sorted, duplicate-free per row) — the hand-off format of rank-local
/// generators (src/wgen) into DistCsr::from_rank_local. row_ptr has
/// local_rows + 1 entries starting at 0.
struct RankLocalRows {
  std::vector<offset_t> row_ptr;
  std::vector<index_t> col_gids;
  std::vector<value_t> values;
};

/// One rank's share of a distributed matrix.
struct RankBlock {
  /// local_rows x (local_cols + ghosts); column index c < local_cols is the
  /// owned unknown layout.begin(p)+c, column c >= local_cols is ghost
  /// ghost_gids[c - local_cols].
  CsrMatrix matrix;
  /// Global ids of ghost (halo) columns, sorted ascending.
  std::vector<index_t> ghost_gids;

  struct Neighbor {
    rank_t rank = -1;
    /// Global indices exchanged with this neighbor, sorted.
    std::vector<index_t> gids;
  };
  /// Coefficients this rank receives (grouped by owning rank, ascending).
  std::vector<Neighbor> recv;
  /// Owned coefficients this rank sends (grouped by destination, ascending).
  std::vector<Neighbor> send;

  /// Number of matrix entries whose column is local / ghost.
  offset_t local_entries = 0;
  offset_t halo_entries = 0;

  /// Local row indices touching only owned columns (computable before the
  /// halo arrives) and rows with at least one ghost column (must wait for
  /// the exchange). Together they enumerate [0, local_rows) exactly once,
  /// each ascending — the overlap-capable SpMV computes interior rows while
  /// the halo is in flight, then boundary rows after the drain.
  std::vector<index_t> interior_rows;
  std::vector<index_t> boundary_rows;
};

class DistCsr {
 public:
  DistCsr() = default;

  /// Distribute the rows of a square global matrix over `layout`. The x and
  /// y vectors of y = A x are distributed the same way (the paper applies
  /// one partition to the matrix, x and b alike). `comm` selects the halo
  /// exchanger realization (flat mailboxes or node-aware leader
  /// aggregation); the two-argument overload reads FSAIC_COMM /
  /// FSAIC_RANKS_PER_NODE from the environment.
  static DistCsr distribute(const CsrMatrix& global, Layout layout,
                            const CommConfig& comm);
  static DistCsr distribute(const CsrMatrix& global, Layout layout);

  /// Assemble a distributed matrix from per-rank row generators WITHOUT a
  /// global CsrMatrix ever existing: `rank_rows(p)` returns rank p's rows
  /// of the conceptual global operator (global column ids, sorted per
  /// row), and each block is remapped to [local | ghost] form
  /// independently — peak memory is one rank's rows plus its ghosts. Rank
  /// blocks build in parallel on `exec` (nullptr -> the process-wide
  /// default executor); block construction is a pure per-rank function, so
  /// the result is bit-identical to distribute(global, layout, comm) of
  /// the concatenated rows for every executor and thread count.
  /// `rank_rows` must be safe to call concurrently for distinct ranks.
  static DistCsr from_rank_local(
      Layout layout, const std::function<RankLocalRows(rank_t)>& rank_rows,
      const CommConfig& comm, Executor* exec = nullptr);

  [[nodiscard]] const Layout& row_layout() const { return row_layout_; }
  [[nodiscard]] const Layout& col_layout() const { return col_layout_; }
  [[nodiscard]] rank_t nranks() const { return row_layout_.nranks(); }
  [[nodiscard]] const RankBlock& block(rank_t p) const {
    return blocks_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] offset_t nnz() const;
  [[nodiscard]] offset_t max_rank_nnz() const;

  /// Bytes one full halo update moves (sum over rank pairs). Payload bytes
  /// are invariant under the comm scheme — aggregation merges messages, it
  /// never duplicates or drops coefficients.
  [[nodiscard]] std::int64_t halo_update_bytes() const;
  /// Wire messages one full halo update posts under the active comm scheme
  /// (point-to-point edges when flat; intra edges + one coalesced message
  /// per inter-node channel when node-aware).
  [[nodiscard]] std::int64_t halo_update_messages() const;
  /// Per-level wire message counts of one full halo update.
  [[nodiscard]] std::int64_t halo_update_intra_messages() const;
  [[nodiscard]] std::int64_t halo_update_inter_messages() const;

  /// Swap the halo exchanger realization (rebuilds it from this matrix's
  /// comm scheme). The numerical results of spmv are bit-identical across
  /// configs; only message coalescing and accounting change.
  void use_comm(const CommConfig& comm);
  [[nodiscard]] const CommConfig& comm_config() const { return comm_; }

  /// Set the storage precision of the rank-local kernels
  /// (sparse/local_operator.hpp). Every matrix starts at Double; Single
  /// (float32 values, double accumulation) is meant for preconditioner
  /// factors only.
  void use_kernel(FactorPrecision precision);
  [[nodiscard]] FactorPrecision kernel_config() const { return precision_; }

  /// y = A x as SPMD supersteps on `exec` (nullptr -> the process-wide
  /// default executor). Under a flat exchanger: two supersteps — every rank
  /// deposits its owned coefficients into the neighbors' halo mailboxes,
  /// then every rank drains its mailboxes and runs the rank-local SpMV
  /// (trace slices "halo_exchange" / "spmv_local"). Under an
  /// overlap-capable exchanger: ONE phased superstep — posts, then per rank
  /// interior rows compute while the exchange is in flight, the drain, and
  /// the boundary rows (trace slices "spmv_interior" / "halo_exchange" /
  /// "spmv_boundary"). Both paths and both executors produce bit-identical
  /// y: rows are summed in identical order either way. Halo traffic is
  /// recorded into `stats` if non-null.
  void spmv(const DistVector& x, DistVector& y, CommStats* stats = nullptr,
            TraceRecorder* trace = nullptr, Executor* exec = nullptr) const;

  /// The mailbox halo exchanger realizing this matrix's comm scheme (shared
  /// between copies of the same distributed matrix).
  [[nodiscard]] const HaloExchanger& halo() const { return *halo_; }

  /// Accumulated per-rank mailbox wait of all spmv calls so far, in
  /// microseconds (nonzero only under the threaded executor).
  [[nodiscard]] std::vector<double> halo_wait_us() const;

  /// Reassemble the global matrix (testing / diagnostics).
  [[nodiscard]] CsrMatrix to_global() const;

 private:
  [[nodiscard]] std::vector<HaloPlan> build_halo_plans() const;
  /// Shared epilogue of distribute()/from_rank_local(): mirror the send
  /// maps from the recv maps, realize the halo exchanger under `comm`, and
  /// build the Double-precision rank-local kernels.
  void finish_build(const CommConfig& comm);

  Layout row_layout_;
  Layout col_layout_;
  std::vector<RankBlock> blocks_;
  CommConfig comm_;
  FactorPrecision precision_ = FactorPrecision::Double;
  /// Per-rank kernel realizations, parallel to blocks_. Copies of a DistCsr
  /// share the immutable float32 values through the operators' shared_ptrs.
  std::vector<LocalOperator> ops_;
  /// Mailboxes are synchronization state, not matrix data: copies of a
  /// DistCsr share one exchanger (operations on the same matrix are
  /// serialized by the superstep structure).
  std::shared_ptr<HaloExchanger> halo_;
};

/// Non-square distribution used by rectangular operators is not needed in
/// this reproduction; DistCsr is square-only by construction.

/// Fingerprint of the GLOBAL operator a DistCsr represents, computed by
/// streaming the per-rank blocks — byte-for-byte equal to
/// fingerprint_of(a.to_global()) without materializing it. This is what
/// lets generated million-row operators key the FactorCache and the factor
/// store exactly like file-loaded ones.
[[nodiscard]] MatrixFingerprint fingerprint_rank_local(const DistCsr& a);

// ---- distributed vector kernels (instrumented collectives) --------------
//
// All kernels run their per-rank loops as one superstep on `exec` (nullptr
// -> the process-wide default executor). Reductions combine the per-rank
// partials with the executor's fixed-order tree, so results are
// bit-identical across executors and thread counts.

/// Global dot product: rank-local dots + one tree allreduce of one double.
/// A non-null `trace` receives one "allreduce" slice.
[[nodiscard]] value_t dist_dot(const DistVector& x, const DistVector& y,
                               CommStats* stats = nullptr,
                               TraceRecorder* trace = nullptr,
                               Executor* exec = nullptr);

/// Global Euclidean norm (counts as one allreduce, like dist_dot).
[[nodiscard]] value_t dist_norm2(const DistVector& x, CommStats* stats = nullptr,
                                 TraceRecorder* trace = nullptr,
                                 Executor* exec = nullptr);

/// y += alpha x, blockwise (no communication).
void dist_axpy(value_t alpha, const DistVector& x, DistVector& y,
               Executor* exec = nullptr);

/// y = x + beta y, blockwise (no communication).
void dist_xpby(const DistVector& x, value_t beta, DistVector& y,
               Executor* exec = nullptr);

/// Fused pipelined-CG recurrence sweep, blockwise in ONE superstep:
/// p = u + beta p; s = w + beta s; r += malpha s. Bit-identical to the
/// dist_xpby/dist_xpby/dist_axpy triple it replaces (see
/// sparse/vector_ops.hpp), two supersteps and two memory passes cheaper.
void dist_fused_cg_sweep(const DistVector& u, const DistVector& w, value_t beta,
                         value_t malpha, DistVector& p, DistVector& s,
                         DistVector& r, Executor* exec = nullptr);

/// Fused AXPY pair in one superstep: x += alpha d; r += malpha q.
void dist_fused_axpy_pair(value_t alpha, const DistVector& d, value_t malpha,
                          const DistVector& q, DistVector& x, DistVector& r,
                          Executor* exec = nullptr);

/// y = x (blockwise copy).
void dist_copy(const DistVector& x, DistVector& y, Executor* exec = nullptr);

}  // namespace fsaic
