#include "perf/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace fsaic {

CostModel::CostModel(Machine machine, CostModelOptions options)
    : machine_(std::move(machine)), options_(options) {
  FSAIC_REQUIRE(options_.threads_per_rank >= 1,
                "threads_per_rank must be positive");
}

CacheConfig CostModel::rank_cache() const {
  CacheConfig c = machine_.l1;
  c.size_bytes *= options_.threads_per_rank;
  return c;
}

OpCost CostModel::spmv_cost(const DistCsr& a) const {
  const double t = options_.threads_per_rank;
  // Matrix stream: the kernel streams one (value, column) pair per stored
  // entry, at 4-byte values when the factors are stored single. Under
  // double storage this is the historic bytes_per_nnz * nnz charge.
  const double value_bytes =
      a.kernel_config() == FactorPrecision::Single ? 4.0 : 8.0;
  const double entry_bytes = value_bytes + 4.0;
  const double per_entry = std::max(
      entry_bytes / (machine_.mem_bw_per_core * machine_.stream_bw_multiplier),
      machine_.nnz_flop_cost());
  const CacheConfig cache = rank_cache();
  const NodeTopology topo = options_.comm.topology(a.nranks());
  const bool aggregate = options_.comm.mode == CommMode::NodeAware;

  OpCost cost;
  for (rank_t p = 0; p < a.nranks(); ++p) {
    const RankBlock& blk = a.block(p);
    const auto report = replay_spmv_x_accesses(blk.matrix, cache);
    const double compute =
        (static_cast<double>(blk.matrix.nnz()) * per_entry +
         static_cast<double>(report.misses) * machine_.miss_cost()) /
        t;
    // Rank p's halo edges, each priced at its fabric level. Neighbor lists
    // are sorted by rank (so also by node), letting the node-aware model
    // charge one network latency per distinct peer node — coalesced
    // payload bytes still cross the wire in full, only latencies merge.
    double comm = 0.0;
    const auto charge = [&](const std::vector<RankBlock::Neighbor>& edges) {
      rank_t last_peer_node = -1;
      for (const auto& nb : edges) {
        const double bytes =
            static_cast<double>(nb.gids.size() * sizeof(value_t));
        if (topo.same_node(nb.rank, p)) {
          comm += machine_.net_alpha_intra + machine_.net_beta_intra * bytes;
        } else if (!aggregate) {
          comm += machine_.net_alpha + machine_.net_beta * bytes;
        } else {
          const rank_t peer_node = topo.node_of(nb.rank);
          if (peer_node != last_peer_node) {
            comm += machine_.net_alpha;
            last_peer_node = peer_node;
          }
          comm += machine_.net_beta * bytes;
        }
      }
    };
    charge(blk.recv);
    charge(blk.send);
    cost.compute = std::max(cost.compute, compute);
    cost.comm = std::max(cost.comm, comm);
  }
  return cost;
}

std::int64_t CostModel::spmv_x_misses(const DistCsr& a) const {
  const CacheConfig cache = rank_cache();
  std::int64_t misses = 0;
  for (rank_t p = 0; p < a.nranks(); ++p) {
    misses += replay_spmv_x_accesses(a.block(p).matrix, cache).misses;
  }
  return misses;
}

double CostModel::blas1_cost(const Layout& layout, int n_updates) const {
  index_t max_local = 0;
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    max_local = std::max(max_local, layout.local_size(p));
  }
  // Each AXPY-like update streams ~3 vector accesses (2 loads + 1 store).
  const double bytes = static_cast<double>(max_local) * 3.0 * sizeof(value_t);
  return static_cast<double>(n_updates) * bytes /
         (machine_.mem_bw_per_core * options_.threads_per_rank);
}

double CostModel::allreduce_cost(rank_t nranks) const {
  if (nranks <= 1) return 0.0;
  const NodeTopology topo = options_.comm.topology(nranks);
  if (topo.ranks_per_node() <= 1) {
    const double stages = std::ceil(std::log2(static_cast<double>(nranks)));
    // Reduce + broadcast along a binomial tree: 2 latency-bound stages each.
    return 2.0 * stages *
           (machine_.net_alpha + machine_.net_beta * sizeof(value_t));
  }
  // Hierarchical tree: reduce within each node over the cheap fabric, then
  // across node leaders over the network, broadcast back — 2 sweeps per
  // level, each latency-bound at its level's alpha/beta.
  const rank_t width = std::min<rank_t>(
      nranks, static_cast<rank_t>(topo.ranks_per_node()));
  const double intra_stages = std::ceil(std::log2(static_cast<double>(width)));
  const double inter_stages =
      topo.nnodes() > 1
          ? std::ceil(std::log2(static_cast<double>(topo.nnodes())))
          : 0.0;
  return 2.0 * intra_stages *
             (machine_.net_alpha_intra + machine_.net_beta_intra * sizeof(value_t)) +
         2.0 * inter_stages *
             (machine_.net_alpha + machine_.net_beta * sizeof(value_t));
}

PcgIterationCost CostModel::pcg_iteration_cost(const DistCsr& a, const DistCsr& g,
                                               const DistCsr& gt) const {
  PcgIterationCost cost;
  cost.spmv_a = spmv_cost(a);
  cost.precond_g = spmv_cost(g);
  cost.precond_gt = spmv_cost(gt);
  // Per PCG iteration: x-update, r-update, d-update (3 AXPY-like sweeps).
  cost.blas1 = blas1_cost(a.row_layout(), 3);
  // Two inner products (r^T z, d^T A d) plus the convergence-check norm.
  cost.allreduce = 3.0 * allreduce_cost(a.nranks());
  return cost;
}

double CostModel::precond_gflops_per_process(const DistCsr& g,
                                             const DistCsr& gt) const {
  const double flops = precond_flops(g, gt) / static_cast<double>(g.nranks());
  const double time =
      spmv_cost(g).total() + spmv_cost(gt).total();
  return time > 0.0 ? flops / time * 1e-9 : 0.0;
}

}  // namespace fsaic
