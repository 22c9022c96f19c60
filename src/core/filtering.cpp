#include "core/filtering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace fsaic {

namespace {

/// Diagonal of g_ext. A factor row is lower triangular, so its diagonal is
/// the row's last entry; any other row is looked up.
std::vector<value_t> row_diagonal(const CsrMatrix& g_ext) {
  FSAIC_REQUIRE(g_ext.rows() == g_ext.cols(), "diagonal requires a square matrix");
  const auto row_ptr = g_ext.row_ptr();
  const auto col_idx = g_ext.col_idx();
  const auto values = g_ext.values();
  std::vector<value_t> diag(static_cast<std::size_t>(g_ext.rows()));
  for (index_t i = 0; i < g_ext.rows(); ++i) {
    const auto last = row_ptr[static_cast<std::size_t>(i) + 1] - 1;
    const bool tail = last >= row_ptr[static_cast<std::size_t>(i)] &&
                      col_idx[static_cast<std::size_t>(last)] == i;
    diag[static_cast<std::size_t>(i)] =
        tail ? values[static_cast<std::size_t>(last)] : g_ext.at(i, i);
  }
  return diag;
}

/// Survival flags of g_ext's entries, one byte per entry, and for each rank
/// the filter its flags were last computed with and how many they keep. A
/// rank's flags are reused by the final assembly when its final filter is
/// the one last counted.
struct KeepMask {
  std::vector<std::uint8_t> keep;
  std::vector<value_t> filter;
  std::vector<offset_t> count;
};

/// Flag the entries of rank p's rows that survive filter f and return how
/// many do. Entry (i, j) survives iff it is diagonal, or (under
/// only_added_entries) in `base`, or f <= 0, or |v| >= f * sqrt(|d_i d_j|).
/// Base membership is a merge walk of the sorted base row.
offset_t mark_surviving(const CsrMatrix& g_ext, const SparsityPattern& base,
                        const Layout& layout, rank_t p, value_t f,
                        std::span<const value_t> diag,
                        const FilterOptions& options, KeepMask& mask) {
  const auto row_ptr = g_ext.row_ptr();
  const auto col_idx = g_ext.col_idx();
  const auto values = g_ext.values();
  const auto base_ptr = base.row_ptr();
  const auto base_idx = base.col_idx();
  const bool only_added = options.only_added_entries;
  std::uint8_t* const keep = mask.keep.data();
  offset_t count = 0;
  for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
    const value_t di = diag[static_cast<std::size_t>(i)];
    offset_t b = only_added ? base_ptr[static_cast<std::size_t>(i)] : 0;
    const offset_t b_end = only_added ? base_ptr[static_cast<std::size_t>(i) + 1] : 0;
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      while (b < b_end && base_idx[static_cast<std::size_t>(b)] < j) ++b;
      const bool in_base = b < b_end && base_idx[static_cast<std::size_t>(b)] == j;
      // Every test is evaluated, without short-circuit branches: whether an
      // entry survives is data-dependent and would mispredict.
      const value_t scale = std::sqrt(std::abs(di * diag[static_cast<std::size_t>(j)]));
      const bool kept = static_cast<int>(j == i) | static_cast<int>(in_base) |
                        static_cast<int>(f <= 0.0) |
                        static_cast<int>(std::abs(values[static_cast<std::size_t>(k)]) >=
                                         f * scale);
      keep[static_cast<std::size_t>(k)] = kept ? 1 : 0;
      count += kept ? 1 : 0;
    }
  }
  mask.filter[static_cast<std::size_t>(p)] = f;
  mask.count[static_cast<std::size_t>(p)] = count;
  return count;
}

/// Assemble the surviving pattern given per-rank filters, re-marking only
/// the ranks whose flags were last computed with another filter.
FilterOutcome assemble(const CsrMatrix& g_ext, const SparsityPattern& base,
                       const Layout& layout, std::vector<value_t> rank_filter,
                       std::span<const value_t> diag,
                       const FilterOptions& options, KeepMask& mask) {
  const index_t n = g_ext.rows();
  FilterOutcome out;
  out.rank_entries.assign(static_cast<std::size_t>(layout.nranks()), 0);
  offset_t total = 0;
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    const value_t f = rank_filter[static_cast<std::size_t>(p)];
    const offset_t count =
        mask.filter[static_cast<std::size_t>(p)] == f
            ? mask.count[static_cast<std::size_t>(p)]
            : mark_surviving(g_ext, base, layout, p, f, diag, options, mask);
    out.rank_entries[static_cast<std::size_t>(p)] = count;
    total += count;
  }

  const auto src_ptr = g_ext.row_ptr();
  const auto src_idx = g_ext.col_idx();
  const std::uint8_t* const keep = mask.keep.data();
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  // Branch-free compaction: every column is stored at the cursor, which
  // advances only past kept ones; one spare slot takes the last store.
  std::vector<index_t> col_idx(static_cast<std::size_t>(total) + 1);
  offset_t pos = 0;
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = src_ptr[static_cast<std::size_t>(i)];
         k < src_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      col_idx[static_cast<std::size_t>(pos)] = src_idx[static_cast<std::size_t>(k)];
      pos += keep[static_cast<std::size_t>(k)];
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = pos;
  }
  col_idx.pop_back();
  out.pattern = SparsityPattern(n, n, std::move(row_ptr), std::move(col_idx));
  out.rank_filter = std::move(rank_filter);
  return out;
}

/// Validate the filter inputs and size a mask with no rank counted yet.
KeepMask new_mask(const CsrMatrix& g_ext, const SparsityPattern& base,
                  const Layout& layout, const FilterOptions& options) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  FSAIC_REQUIRE(!options.only_added_entries || base.rows() == g_ext.rows(),
                "base pattern rows must match g_ext");
  const auto nranks = static_cast<std::size_t>(layout.nranks());
  return {std::vector<std::uint8_t>(static_cast<std::size_t>(g_ext.nnz())),
          std::vector<value_t>(nranks, std::numeric_limits<value_t>::quiet_NaN()),
          std::vector<offset_t>(nranks, 0)};
}

}  // namespace

FilterOutcome static_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                            const Layout& layout, const FilterOptions& options) {
  KeepMask mask = new_mask(g_ext, base, layout, options);
  const auto diag = row_diagonal(g_ext);
  std::vector<value_t> filters(static_cast<std::size_t>(layout.nranks()),
                               options.filter);
  return assemble(g_ext, base, layout, std::move(filters), diag, options, mask);
}

FilterOutcome dynamic_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                             const Layout& layout, const FilterOptions& options,
                             CommStats* stats) {
  KeepMask mask = new_mask(g_ext, base, layout, options);
  const auto diag = row_diagonal(g_ext);
  const rank_t nranks = layout.nranks();
  std::vector<value_t> filters(static_cast<std::size_t>(nranks), options.filter);
  std::vector<offset_t> counts(static_cast<std::size_t>(nranks), 0);
  int bisections = 0;
  const auto count_surviving = [&](rank_t p, value_t f) {
    return mark_surviving(g_ext, base, layout, p, f, diag, options, mask);
  };

  for (int round = 0; round < options.rebalance_rounds; ++round) {
    // Each process computes its share, then the totals are exchanged with
    // one allreduce (Algorithm 4 line 3).
    offset_t total = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      counts[static_cast<std::size_t>(p)] =
          count_surviving(p, filters[static_cast<std::size_t>(p)]);
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
        hi_count = count_surviving(p, hi);
        if (static_cast<double>(hi_count) <= target_hi) break;
      }
      // Bisection phase (Algorithm 4 line 10): shrink back toward the
      // smallest filter that still meets the target, so no more entries are
      // dropped than balance requires.
      while (steps < options.max_bisection_steps && hi - lo > 1e-12 * hi) {
        const value_t mid = 0.5 * (lo + hi);
        ++steps;
        ++bisections;
        const offset_t mid_count = count_surviving(p, mid);
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

  FilterOutcome out =
      assemble(g_ext, base, layout, std::move(filters), diag, options, mask);
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
