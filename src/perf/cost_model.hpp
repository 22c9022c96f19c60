// Analytical per-iteration cost model of the distributed PCG.
//
// Modeled time of a bulk-synchronous operation is the maximum over ranks of
// (compute + communication), so inter-process load imbalance — the problem
// the paper's dynamic filtering attacks — penalizes modeled time exactly as
// it would stall real synchronization points. Compute cost per rank is
//
//   nnz * max(stream, flop) / threads  +  x_misses * line_fetch / threads
//
// where x_misses comes from replaying the SpMV x-access stream through the
// machine's L1 model (aggregated over the threads of the rank, matching the
// paper's observation that more threads per process mean more L1 capacity
// for the shared extended pattern).
#pragma once

#include "dist/dist_csr.hpp"
#include "perf/machine.hpp"

namespace fsaic {

struct CostModelOptions {
  /// OpenMP threads per simulated MPI rank (the paper's hybrid knob).
  int threads_per_rank = 1;

  /// Communication scheme the model prices. The default (flat, one rank
  /// per node) charges every halo edge a full network message — the
  /// historic model, unchanged to the last bit. With ranks_per_node > 1,
  /// on-node edges are charged at the machine's intra-node alpha/beta; in
  /// node-aware mode cross-node edges additionally share one network
  /// latency per distinct peer node (the leader-aggregated coalescing).
  /// (`{}` so designated initializers may omit it, as in trace.hpp.)
  CommConfig comm{};
};

/// Cost of one distributed operation, split by source.
struct OpCost {
  double compute = 0.0;  ///< max over ranks of local work
  double comm = 0.0;     ///< max over ranks of its halo exchanges

  [[nodiscard]] double total() const { return compute + comm; }
};

/// Per-iteration cost of preconditioned CG, split by kernel.
struct PcgIterationCost {
  OpCost spmv_a;
  OpCost precond_g;   ///< w = G r
  OpCost precond_gt;  ///< z = G^T w
  double blas1 = 0.0;
  double allreduce = 0.0;

  [[nodiscard]] double total() const {
    return spmv_a.total() + precond_g.total() + precond_gt.total() + blas1 +
           allreduce;
  }

  /// Cost of the preconditioning application alone (the paper's G^T G x).
  [[nodiscard]] double precond_total() const {
    return precond_g.total() + precond_gt.total();
  }
};

class CostModel {
 public:
  CostModel(Machine machine, CostModelOptions options = {});

  [[nodiscard]] const Machine& machine() const { return machine_; }
  [[nodiscard]] const CostModelOptions& options() const { return options_; }

  /// L1 geometry available to one rank (threads_per_rank cores' worth of
  /// sets at the machine's line size / associativity).
  [[nodiscard]] CacheConfig rank_cache() const;

  /// Modeled cost of one y = A x, including the halo update.
  [[nodiscard]] OpCost spmv_cost(const DistCsr& a) const;

  /// Total x-access misses of one y = A x summed over ranks (diagnostics,
  /// Figures 3a/5a).
  [[nodiscard]] std::int64_t spmv_x_misses(const DistCsr& a) const;

  /// Cost of n_updates AXPY-like sweeps over local vectors.
  [[nodiscard]] double blas1_cost(const Layout& layout, int n_updates) const;

  /// Cost of one scalar allreduce over nranks (binomial-tree model).
  [[nodiscard]] double allreduce_cost(rank_t nranks) const;

  /// Full per-iteration PCG cost for system A preconditioned by G^T G.
  [[nodiscard]] PcgIterationCost pcg_iteration_cost(const DistCsr& a,
                                                    const DistCsr& g,
                                                    const DistCsr& gt) const;

  /// Flop count of the preconditioning product G^T G x per iteration.
  [[nodiscard]] static double precond_flops(const DistCsr& g, const DistCsr& gt) {
    return 2.0 * static_cast<double>(g.nnz() + gt.nnz());
  }

  /// GFLOP/s per process in the preconditioning operation (Figures 3b/5b/7).
  [[nodiscard]] double precond_gflops_per_process(const DistCsr& g,
                                                  const DistCsr& gt) const;

 private:
  Machine machine_;
  CostModelOptions options_;
};

}  // namespace fsaic
