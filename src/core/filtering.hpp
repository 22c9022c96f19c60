// Post-filtering of the extended FSAI factor (Algorithm 2 step 4) with the
// paper's two strategies:
//
//  * static  — one Filter value for every process; an entry g_ij survives iff
//              |g_ij| >= Filter * sqrt(|g_ii * g_jj|)  (scale-independent
//              comparison against the diagonal, Chow 2001);
//  * dynamic — Algorithm 4: each overloaded process raises its own filter by
//              a doubling/bisection search until its share of pattern entries
//              is within tolerance of the average, eliminating the load
//              imbalance a purely local extension can introduce.
//
// By default only *added* entries (those outside the original pattern S) are
// candidates for removal, so filtering can only shrink an extension back
// toward plain FSAI, never below it.
#pragma once

#include <vector>

#include "dist/comm_stats.hpp"
#include "dist/layout.hpp"
#include "sparse/csr.hpp"

namespace fsaic {

struct FilterOptions {
  /// Base Filter value (the paper sweeps 0.01 / 0.05 / 0.1 / 0.2).
  value_t filter = 0.0;
  /// Protect the entries of the original pattern from filtering.
  bool only_added_entries = true;
  /// Dynamic filtering: tolerated relative per-process load deviation
  /// (Algorithm 4 uses 5%).
  double imbalance_tolerance = 0.05;
  /// Cap on bisection steps per process per round.
  int max_bisection_steps = 30;
  /// Rounds of the global (allreduce) rebalancing loop.
  int rebalance_rounds = 8;
};

struct FilterOutcome {
  /// Surviving pattern.
  SparsityPattern pattern;
  /// Per-rank filter actually applied (all equal for static filtering).
  std::vector<value_t> rank_filter;
  /// Per-rank surviving entry counts (rows owned by the rank).
  std::vector<offset_t> rank_entries;
  /// Total bisection iterations spent by the dynamic search.
  int bisection_iterations = 0;
};

/// Static filtering: drop small candidates of `g_ext` (entries outside
/// `base` when only_added_entries) using options.filter on every rank.
[[nodiscard]] FilterOutcome static_filter(const CsrMatrix& g_ext,
                                          const SparsityPattern& base,
                                          const Layout& layout,
                                          const FilterOptions& options);

/// Dynamic filtering (Algorithm 4): start every rank at options.filter and
/// raise it on overloaded ranks until per-rank entry counts are balanced.
/// The allreduce per round is recorded into `stats` when non-null.
[[nodiscard]] FilterOutcome dynamic_filter(const CsrMatrix& g_ext,
                                           const SparsityPattern& base,
                                           const Layout& layout,
                                           const FilterOptions& options,
                                           CommStats* stats = nullptr);

/// Imbalance index as defined in Section 5.3.3: average process entries over
/// maximum process entries (1 = balanced, smaller = worse).
[[nodiscard]] double imbalance_index(std::span<const offset_t> rank_entries);

/// The same index from its two aggregates: `total` entries over `nranks`
/// ranks, at most `max_rank` on one (e.g. DistCsr::nnz / max_rank_nnz).
[[nodiscard]] double imbalance_index(offset_t total, offset_t max_rank,
                                     rank_t nranks);

/// Per-rank entry counts of a row-distributed pattern.
[[nodiscard]] std::vector<offset_t> rank_entry_counts(const SparsityPattern& p,
                                                      const Layout& layout);

}  // namespace fsaic
