#include "core/fsai_driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/format.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

const char* to_string(FilterStrategy strategy) {
  return strategy == FilterStrategy::Static ? "static" : "dynamic";
}

FsaiBuildResult build_fsai_preconditioner(const CsrMatrix& a, const Layout& layout,
                                          const FsaiOptions& options) {
  FSAIC_REQUIRE(a.rows() == layout.global_size(),
                "layout must cover the matrix rows");
  FsaiBuildResult result;
  TraceRecorder* const trace = options.trace;

  // Steps 1-2: a-priori pattern.
  {
    ScopedPhase phase(trace, "pattern_build", "setup");
    result.base_pattern =
        fsai_base_pattern(a, options.sparsity_level, options.prefilter_threshold);
  }

  // Step 3: cache-line extension.
  {
    ScopedPhase phase(trace, "pattern_extension", "setup");
    ExtensionResult ext = extend_pattern(result.base_pattern, layout,
                                         options.cache_line_bytes, options.extension);
    result.extended_pattern = std::move(ext.extended);
  }

  // Step 4: provisional values + filtering of added entries.
  const FsaiComputeOptions copts{options.exec};
  const bool filtering_active =
      options.filter > 0.0 && result.extended_pattern.nnz() > result.base_pattern.nnz();
  {
    ScopedPhase phase(trace, "filtering", "setup");
    if (filtering_active) {
      const CsrMatrix g_pre = compute_fsai_factor(
          a, result.extended_pattern, &result.provisional_factor_stats, copts);
      FilterOptions fopts;
      fopts.filter = options.filter;
      fopts.only_added_entries = options.filter_only_added;
      fopts.imbalance_tolerance = options.imbalance_tolerance;
      fopts.max_bisection_steps = options.max_bisection_steps;
      fopts.rebalance_rounds = options.rebalance_rounds;
      FilterOutcome outcome =
          options.filter_strategy == FilterStrategy::Static
              ? static_filter(g_pre, result.base_pattern, layout, fopts)
              : dynamic_filter(g_pre, result.base_pattern, layout, fopts,
                               &result.setup_comm);
      result.final_pattern = std::move(outcome.pattern);
      result.rank_filter = std::move(outcome.rank_filter);
      result.dynamic_bisection_iterations = outcome.bisection_iterations;
    } else {
      result.final_pattern = result.extended_pattern;
      result.rank_filter.assign(static_cast<std::size_t>(layout.nranks()),
                                options.filter);
    }
  }

  // Step 5: recompute values on the surviving pattern.
  {
    ScopedPhase phase(trace, "factorization", "setup");
    result.g = compute_fsai_factor(a, result.final_pattern,
                                   &result.factor_stats, copts);
  }

  result.nnz_increase_pct =
      100.0 *
      static_cast<double>(result.final_pattern.nnz() - result.base_pattern.nnz()) /
      static_cast<double>(result.base_pattern.nnz());

  // Distribute G and G^T for the solver, and measure load balance of both.
  {
    ScopedPhase phase(trace, "distribute_factors", "setup");
    result.g_dist = DistCsr::distribute(result.g, layout);
    result.gt_dist = DistCsr::distribute(transpose(result.g), layout);
  }
  // Each rank block holds exactly its rows' entries, so the distributed
  // factors' counts are the per-rank pattern counts.
  result.imbalance_g = imbalance_index(
      result.g_dist.nnz(), result.g_dist.max_rank_nnz(), layout.nranks());
  result.imbalance_gt = imbalance_index(
      result.gt_dist.nnz(), result.gt_dist.max_rank_nnz(), layout.nranks());
  return result;
}

std::unique_ptr<FactorizedPreconditioner> make_factorized_preconditioner(
    const FsaiBuildResult& build, const std::string& label) {
  return std::make_unique<FactorizedPreconditioner>(build.g_dist, build.gt_dist,
                                                    label);
}

namespace {

/// An SPD matrix has a positive diagonal, so a missing, non-positive or
/// non-finite diagonal entry rejects the operator before any setup runs
/// (otherwise CG stops after one iteration with no reason given).
void require_positive_diagonal(const CsrMatrix& a) {
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto it = std::lower_bound(cols.begin(), cols.end(), i);
    if (it == cols.end() || *it != i) {
      throw Error(strformat(
          "system matrix has no diagonal entry in row %lld (0-based); "
          "FSAI needs an SPD matrix",
          static_cast<long long>(i)));
    }
    const value_t d = a.row_vals(i)[static_cast<std::size_t>(it - cols.begin())];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw Error(strformat(
          "system matrix diagonal entry in row %lld (0-based) is %g, not "
          "positive and finite; FSAI needs an SPD matrix",
          static_cast<long long>(i), d));
    }
  }
}

}  // namespace

PartitionedSystem partition_system(const CsrMatrix& a, rank_t nranks,
                                   std::uint64_t seed) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "system matrix must be square");
  require_positive_diagonal(a);
  FSAIC_REQUIRE(nranks >= 1, "need at least one rank");
  PartitionedSystem sys;
  const Graph graph = Graph::from_pattern(a.pattern());
  PartitionOptions popts;
  popts.seed = seed;
  const auto part = partition_graph(graph, nranks, popts);
  const auto metrics = evaluate_partition(graph, part, nranks);
  sys.partition_imbalance = metrics.imbalance;
  sys.edge_cut = metrics.edge_cut;
  sys.perm = partition_permutation(part, nranks);
  sys.matrix = permute_symmetric(a, sys.perm);
  sys.layout = Layout::from_part_sizes(partition_sizes(part, nranks));
  return sys;
}

}  // namespace fsaic
