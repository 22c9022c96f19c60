// Test oracles for the symbolic setup passes: the implementations the
// library's flat CSR sweeps replaced, kept here so tests can assert that the
// shipped passes produce byte-identical output.
//
//  * reference_static_filter / reference_dynamic_filter: per-entry
//    SparsityPattern::contains() and a fresh sqrt comparison in every count
//    and again in the final assembly;
//  * reference_extend_pattern: a vector of row vectors finished by
//    SparsityPattern::from_rows(), with CommScheme hash-set queries;
//  * reference_permute_symmetric: a COO round trip through CooBuilder;
//  * reference_rank_block: ghosts found by binary search, each row sorted as
//    (local column, value) pairs.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/filtering.hpp"
#include "core/pattern_extend.hpp"
#include "dist/comm_scheme.hpp"
#include "dist/dist_csr.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/pattern.hpp"

namespace fsaic::oracle {

namespace detail {

/// Does entry (i, j) with value v survive filter f? Diagonal entries and
/// (under only_added) original-pattern entries always survive.
inline bool survives(index_t i, index_t j, value_t v, value_t f,
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
inline offset_t count_surviving(const CsrMatrix& g_ext, const SparsityPattern& base,
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
inline FilterOutcome assemble(const CsrMatrix& g_ext, const SparsityPattern& base,
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

}  // namespace detail

inline FilterOutcome reference_static_filter(const CsrMatrix& g_ext,
                                             const SparsityPattern& base,
                                             const Layout& layout,
                                             const FilterOptions& options) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  const auto diag = g_ext.diagonal();
  std::vector<value_t> filters(static_cast<std::size_t>(layout.nranks()),
                               options.filter);
  return detail::assemble(g_ext, base, layout, std::move(filters), diag, options);
}

inline FilterOutcome reference_dynamic_filter(const CsrMatrix& g_ext,
                                              const SparsityPattern& base,
                                              const Layout& layout,
                                              const FilterOptions& options,
                                              CommStats* stats = nullptr) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  const auto diag = g_ext.diagonal();
  const rank_t nranks = layout.nranks();
  std::vector<value_t> filters(static_cast<std::size_t>(nranks), options.filter);
  std::vector<offset_t> counts(static_cast<std::size_t>(nranks), 0);
  int bisections = 0;

  for (int round = 0; round < options.rebalance_rounds; ++round) {
    offset_t total = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      counts[static_cast<std::size_t>(p)] = detail::count_surviving(
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
      value_t lo = filters[static_cast<std::size_t>(p)];
      value_t hi = lo > 0.0 ? lo : 1e-8;
      int steps = 0;
      offset_t hi_count = counts[static_cast<std::size_t>(p)];
      while (steps < options.max_bisection_steps) {
        hi *= 2.0;
        ++steps;
        ++bisections;
        hi_count = detail::count_surviving(g_ext, base, layout, p, hi, diag, options);
        if (static_cast<double>(hi_count) <= target_hi) break;
      }
      while (steps < options.max_bisection_steps && hi - lo > 1e-12 * hi) {
        const value_t mid = 0.5 * (lo + hi);
        ++steps;
        ++bisections;
        const offset_t mid_count =
            detail::count_surviving(g_ext, base, layout, p, mid, diag, options);
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
      detail::assemble(g_ext, base, layout, std::move(filters), diag, options);
  out.bisection_iterations = bisections;
  return out;
}

inline ExtensionResult reference_extend_pattern(const SparsityPattern& s,
                                                const Layout& layout,
                                                int cache_line_bytes,
                                                ExtensionMode mode) {
  FSAIC_REQUIRE(s.rows() == s.cols(), "pattern must be square");
  FSAIC_REQUIRE(s.rows() == layout.global_size(), "layout size mismatch");
  FSAIC_REQUIRE(s.is_lower_triangular(), "pattern of G must be lower triangular");
  FSAIC_REQUIRE(cache_line_bytes >= static_cast<int>(sizeof(value_t)) &&
                    cache_line_bytes % static_cast<int>(sizeof(value_t)) == 0,
                "cache line must hold a whole number of values");

  if (mode == ExtensionMode::None) {
    return {s, 0, 0};
  }

  const auto entries_per_line =
      static_cast<index_t>(cache_line_bytes / sizeof(value_t));
  const index_t n = s.rows();

  CommScheme scheme_g;
  CommScheme scheme_gt;
  if (mode == ExtensionMode::CommAware) {
    scheme_g = CommScheme::from_pattern(s, layout);
    scheme_gt = CommScheme::from_pattern(s.transposed(), layout);
  }

  ExtensionResult result;
  std::vector<std::vector<index_t>> rows_out(static_cast<std::size_t>(n));
  std::vector<index_t> last_row_touch(static_cast<std::size_t>(n), -1);

  for (index_t i = 0; i < n; ++i) {
    const rank_t p = layout.owner(i);
    const auto base = s.row(i);
    auto& out = rows_out[static_cast<std::size_t>(i)];
    out.assign(base.begin(), base.end());
    for (index_t j : base) {
      last_row_touch[static_cast<std::size_t>(j)] = i;
    }

    index_t prev_block = -1;
    for (index_t j : base) {
      const index_t block = j / entries_per_line;
      if (block == prev_block) continue;
      prev_block = block;
      const index_t k_begin = block * entries_per_line;
      const index_t k_end = std::min<index_t>(k_begin + entries_per_line, n);
      for (index_t k = k_begin; k < k_end; ++k) {
        if (k > i) break;
        if (last_row_touch[static_cast<std::size_t>(k)] == i) continue;
        bool admit = false;
        if (layout.owns(p, k)) {
          admit = true;
          if (admit) ++result.local_added;
        } else {
          switch (mode) {
            case ExtensionMode::LocalOnly:
              admit = false;
              break;
            case ExtensionMode::FullHalo:
              admit = true;
              break;
            case ExtensionMode::CommAware:
              admit = scheme_g.receives(p, k) &&
                      scheme_gt.receives(layout.owner(k), i);
              break;
            case ExtensionMode::None:
              admit = false;
              break;
          }
          if (admit) ++result.halo_added;
        }
        if (admit) {
          out.push_back(k);
          last_row_touch[static_cast<std::size_t>(k)] = i;
        }
      }
    }
  }

  result.extended = SparsityPattern::from_rows(n, n, std::move(rows_out));
  FSAIC_CHECK(result.extended.nnz() == s.nnz() + result.total_added(),
              "extension bookkeeping mismatch");
  return result;
}

inline CsrMatrix reference_permute_symmetric(const CsrMatrix& a,
                                             std::span<const index_t> perm) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "symmetric permutation requires square");
  FSAIC_REQUIRE(perm.size() == static_cast<std::size_t>(a.rows()),
                "permutation size mismatch");
  CooBuilder out(a.rows(), a.cols());
  out.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    const index_t pi = perm[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < cols_i.size(); ++k) {
      out.add(pi, perm[static_cast<std::size_t>(cols_i[k])], vals_i[k]);
    }
  }
  return out.to_csr();
}

/// Rank p's block of the square matrix whose rows [layout.begin(p),
/// layout.end(p)) are `rows` (global column ids). Fills every RankBlock
/// field that DistCsr's block build fills (everything but `send`).
inline RankBlock reference_rank_block(const Layout& layout, rank_t p,
                                      const RankLocalRows& rows) {
  RankBlock blk;
  const index_t row0 = layout.begin(p);
  const index_t nloc = layout.local_size(p);
  auto row = [&](index_t li) {
    const auto b = static_cast<std::size_t>(rows.row_ptr[static_cast<std::size_t>(li)]);
    const auto e =
        static_cast<std::size_t>(rows.row_ptr[static_cast<std::size_t>(li) + 1]);
    return std::make_pair(std::span<const index_t>(rows.col_gids).subspan(b, e - b),
                          std::span<const value_t>(rows.values).subspan(b, e - b));
  };

  std::vector<index_t> ghosts;
  for (index_t li = 0; li < nloc; ++li) {
    for (index_t j : row(li).first) {
      if (!layout.owns(p, j)) ghosts.push_back(j);
    }
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  blk.ghost_gids = ghosts;

  std::vector<offset_t> row_ptr(static_cast<std::size_t>(nloc) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  for (index_t li = 0; li < nloc; ++li) {
    const auto [cols, vals] = row(li);
    std::vector<std::pair<index_t, value_t>> entries;
    entries.reserve(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      index_t lj;
      if (layout.owns(p, j)) {
        lj = j - row0;
        ++blk.local_entries;
      } else {
        const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), j);
        lj = nloc + static_cast<index_t>(it - ghosts.begin());
        ++blk.halo_entries;
      }
      entries.emplace_back(lj, vals[k]);
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [lj, v] : entries) {
      col_idx.push_back(lj);
      values.push_back(v);
    }
    row_ptr[static_cast<std::size_t>(li) + 1] = static_cast<offset_t>(col_idx.size());
  }
  blk.matrix = CsrMatrix(nloc, nloc + static_cast<index_t>(ghosts.size()),
                         std::move(row_ptr), std::move(col_idx), std::move(values));

  for (index_t li = 0; li < nloc; ++li) {
    const auto cols = blk.matrix.row_cols(li);
    const bool boundary = std::any_of(cols.begin(), cols.end(),
                                      [nloc](index_t c) { return c >= nloc; });
    (boundary ? blk.boundary_rows : blk.interior_rows).push_back(li);
  }

  rank_t current = -1;
  for (index_t gid : ghosts) {
    const rank_t q = layout.owner(gid);
    if (q != current) {
      blk.recv.push_back({q, {}});
      current = q;
    }
    blk.recv.back().gids.push_back(gid);
  }
  return blk;
}

}  // namespace fsaic::oracle
