#include "core/filtering.hpp"

#include <algorithm>
#include <cmath>

namespace fsaic {

namespace {

/// Does entry (i, j) with value v survive filter f? Diagonal entries and
/// (under only_added) original-pattern entries always survive.
bool survives(index_t i, index_t j, value_t v, value_t f,
              const SparsityPattern& base, std::span<const value_t> diag,
              const FilterOptions& options) {
  if (i == j) return true;
  if (options.only_added_entries && base.contains(i, j)) return true;
  if (f <= 0.0) return true;
  const value_t scale = std::sqrt(std::abs(diag[static_cast<std::size_t>(i)] *
                                           diag[static_cast<std::size_t>(j)]));
  return std::abs(v) >= f * scale;
}

/// Surviving entries in the rows of rank p under filter f.
offset_t count_surviving(const CsrMatrix& g_ext, const SparsityPattern& base,
                         const Layout& layout, rank_t p, value_t f,
                         std::span<const value_t> diag,
                         const FilterOptions& options) {
  offset_t count = 0;
  for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
    const auto cols = g_ext.row_cols(i);
    const auto vals = g_ext.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (survives(i, cols[k], vals[k], f, base, diag, options)) ++count;
    }
  }
  return count;
}

/// Assemble the surviving pattern given per-rank filters.
FilterOutcome assemble(const CsrMatrix& g_ext, const SparsityPattern& base,
                       const Layout& layout, std::vector<value_t> rank_filter,
                       std::span<const value_t> diag,
                       const FilterOptions& options) {
  const index_t n = g_ext.rows();
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  col_idx.reserve(static_cast<std::size_t>(g_ext.nnz()));
  FilterOutcome out;
  out.rank_entries.assign(static_cast<std::size_t>(layout.nranks()), 0);
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    const value_t f = rank_filter[static_cast<std::size_t>(p)];
    for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
      const auto cols = g_ext.row_cols(i);
      const auto vals = g_ext.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (survives(i, cols[k], vals[k], f, base, diag, options)) {
          col_idx.push_back(cols[k]);
          ++out.rank_entries[static_cast<std::size_t>(p)];
        }
      }
      row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
    }
  }
  out.pattern = SparsityPattern(n, n, std::move(row_ptr), std::move(col_idx));
  out.rank_filter = std::move(rank_filter);
  return out;
}

}  // namespace

FilterOutcome static_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                            const Layout& layout, const FilterOptions& options) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  const auto diag = g_ext.diagonal();
  std::vector<value_t> filters(static_cast<std::size_t>(layout.nranks()),
                               options.filter);
  return assemble(g_ext, base, layout, std::move(filters), diag, options);
}

FilterOutcome dynamic_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                             const Layout& layout, const FilterOptions& options,
                             CommStats* stats) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  const auto diag = g_ext.diagonal();
  const rank_t nranks = layout.nranks();
  std::vector<value_t> filters(static_cast<std::size_t>(nranks), options.filter);
  std::vector<offset_t> counts(static_cast<std::size_t>(nranks), 0);
  int bisections = 0;

  for (int round = 0; round < options.rebalance_rounds; ++round) {
    // Each process computes its share, then the totals are exchanged with
    // one allreduce (Algorithm 4 line 3).
    offset_t total = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      counts[static_cast<std::size_t>(p)] = count_surviving(
          g_ext, base, layout, p, filters[static_cast<std::size_t>(p)], diag,
          options);
      total += counts[static_cast<std::size_t>(p)];
    }
    if (stats != nullptr) stats->record_allreduce(sizeof(offset_t));

    const double avg = static_cast<double>(total) / static_cast<double>(nranks);
    const double target_hi = avg * (1.0 + options.imbalance_tolerance);
    bool any_overloaded = false;

    for (rank_t p = 0; p < nranks; ++p) {
      if (static_cast<double>(counts[static_cast<std::size_t>(p)]) <= target_hi) {
        continue;
      }
      any_overloaded = true;
      // Doubling phase (Algorithm 4 line 8): grow the filter until the
      // process's share is at or below the tolerated maximum.
      value_t lo = filters[static_cast<std::size_t>(p)];
      value_t hi = lo > 0.0 ? lo : 1e-8;
      int steps = 0;
      offset_t hi_count = counts[static_cast<std::size_t>(p)];
      while (steps < options.max_bisection_steps) {
        hi *= 2.0;
        ++steps;
        ++bisections;
        hi_count = count_surviving(g_ext, base, layout, p, hi, diag, options);
        if (static_cast<double>(hi_count) <= target_hi) break;
      }
      // Bisection phase (Algorithm 4 line 10): shrink back toward the
      // smallest filter that still meets the target, so no more entries are
      // dropped than balance requires.
      while (steps < options.max_bisection_steps && hi - lo > 1e-12 * hi) {
        const value_t mid = 0.5 * (lo + hi);
        ++steps;
        ++bisections;
        const offset_t mid_count =
            count_surviving(g_ext, base, layout, p, mid, diag, options);
        if (static_cast<double>(mid_count) <= target_hi) {
          hi = mid;
          hi_count = mid_count;
        } else {
          lo = mid;
        }
      }
      filters[static_cast<std::size_t>(p)] = hi;
      counts[static_cast<std::size_t>(p)] = hi_count;
    }
    if (!any_overloaded) break;
  }

  FilterOutcome out = assemble(g_ext, base, layout, std::move(filters), diag, options);
  out.bisection_iterations = bisections;
  return out;
}

double imbalance_index(std::span<const offset_t> rank_entries) {
  offset_t total = 0;
  offset_t maxval = 0;
  for (offset_t c : rank_entries) {
    total += c;
    maxval = std::max(maxval, c);
  }
  return imbalance_index(total, maxval,
                         static_cast<rank_t>(rank_entries.size()));
}

double imbalance_index(offset_t total, offset_t max_rank, rank_t nranks) {
  if (nranks == 0 || max_rank == 0) return 1.0;
  const double avg = static_cast<double>(total) / static_cast<double>(nranks);
  return avg / static_cast<double>(max_rank);
}

std::vector<offset_t> rank_entry_counts(const SparsityPattern& p,
                                        const Layout& layout) {
  FSAIC_REQUIRE(p.rows() == layout.global_size(), "layout mismatch");
  std::vector<offset_t> counts(static_cast<std::size_t>(layout.nranks()), 0);
  for (rank_t r = 0; r < layout.nranks(); ++r) {
    for (index_t i = layout.begin(r); i < layout.end(r); ++i) {
      counts[static_cast<std::size_t>(r)] += p.row_nnz(i);
    }
  }
  return counts;
}

}  // namespace fsaic
