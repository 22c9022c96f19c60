#include "core/pattern_extend.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace fsaic {

const char* to_string(ExtensionMode mode) {
  switch (mode) {
    case ExtensionMode::None:
      return "fsai";
    case ExtensionMode::LocalOnly:
      return "fsaie";
    case ExtensionMode::CommAware:
      return "fsaie-comm";
    case ExtensionMode::FullHalo:
      return "fsaie-full";
  }
  return "?";
}

ExtensionResult extend_pattern(const SparsityPattern& s, const Layout& layout,
                               int cache_line_bytes, ExtensionMode mode) {
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
  const auto row_ptr_s = s.row_ptr();
  const auto col_idx_s = s.col_idx();

  std::vector<rank_t> owner(static_cast<std::size_t>(n));
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    std::fill(owner.begin() + layout.begin(p), owner.begin() + layout.end(p), p);
  }

  // Communication schemes of the initial pattern as one bitmap per rank;
  // halo admissions must stay within both (Gx and G^T x keep their
  // exchanges unchanged). recv_g[p] holds gid iff rank p receives x[gid]
  // for G x: a row of p has column gid owned elsewhere. recv_gt[q] holds i
  // iff q receives x[i] for G^T x: an entry (i, k) has owner(k) == q !=
  // owner(i). These are CommScheme::from_pattern of S and S^T.
  const auto words = static_cast<std::size_t>(n + 63) / 64;
  std::vector<std::uint64_t> recv_g;
  std::vector<std::uint64_t> recv_gt;
  const auto set_bit = [words](std::vector<std::uint64_t>& bits, rank_t r,
                               index_t gid) {
    bits[static_cast<std::size_t>(r) * words + static_cast<std::size_t>(gid) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(gid) % 64);
  };
  const auto test_bit = [words](const std::vector<std::uint64_t>& bits, rank_t r,
                                index_t gid) {
    return ((bits[static_cast<std::size_t>(r) * words +
                  static_cast<std::size_t>(gid) / 64] >>
             (static_cast<std::size_t>(gid) % 64)) &
            1U) != 0;
  };
  if (mode == ExtensionMode::CommAware) {
    recv_g.assign(static_cast<std::size_t>(layout.nranks()) * words, 0);
    recv_gt.assign(static_cast<std::size_t>(layout.nranks()) * words, 0);
    for (index_t i = 0; i < n; ++i) {
      const rank_t p = owner[static_cast<std::size_t>(i)];
      for (offset_t e = row_ptr_s[static_cast<std::size_t>(i)];
           e < row_ptr_s[static_cast<std::size_t>(i) + 1]; ++e) {
        const index_t j = col_idx_s[static_cast<std::size_t>(e)];
        const rank_t q = owner[static_cast<std::size_t>(j)];
        if (q == p) continue;
        set_bit(recv_g, p, j);
        set_bit(recv_gt, q, i);
      }
    }
  }

  ExtensionResult result;
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  col_idx.reserve(2 * static_cast<std::size_t>(s.nnz()));
  // Scratch marker so duplicate candidates within a row are counted once.
  std::vector<index_t> last_row_touch(static_cast<std::size_t>(n), -1);
  std::vector<index_t> added;  // admitted columns of the current row

  for (index_t i = 0; i < n; ++i) {
    const rank_t p = owner[static_cast<std::size_t>(i)];
    const index_t own_begin = layout.begin(p);
    const index_t own_end = layout.end(p);
    const auto base = s.row(i);
    added.clear();
    for (index_t j : base) {
      last_row_touch[static_cast<std::size_t>(j)] = i;
    }

    index_t prev_block = -1;
    for (index_t j : base) {
      const index_t block = j / entries_per_line;
      if (block == prev_block) continue;  // Alg. 3 line 6: block already done
      prev_block = block;
      const index_t k_begin = block * entries_per_line;
      const index_t k_end = std::min<index_t>(k_begin + entries_per_line, i + 1);
      for (index_t k = k_begin; k < k_end; ++k) {  // k <= i: G lower triangular
        if (last_row_touch[static_cast<std::size_t>(k)] == i) continue;  // present
        bool admit = false;
        if (k >= own_begin && k < own_end) {
          admit = true;  // Alg. 3 line 12: local entries are always free
          ++result.local_added;
        } else {
          switch (mode) {
            case ExtensionMode::LocalOnly:
            case ExtensionMode::None:
              admit = false;
              break;
            case ExtensionMode::FullHalo:
              admit = true;
              break;
            case ExtensionMode::CommAware:
              // Alg. 3 line 13 generalized to both products (Section 3):
              // x_k must already flow to owner(i) for Gx, and x_i must
              // already flow to owner(k) for G^T x.
              admit = test_bit(recv_g, p, k) &&
                      test_bit(recv_gt, owner[static_cast<std::size_t>(k)], i);
              break;
          }
          if (admit) ++result.halo_added;
        }
        if (admit) {
          added.push_back(k);
          last_row_touch[static_cast<std::size_t>(k)] = i;
        }
      }
    }
    // Blocks are visited in ascending order and each block ascending, so the
    // admitted columns form one ascending run; merging it with the base row
    // gives the sorted row.
    const std::size_t row_begin = col_idx.size();
    col_idx.resize(row_begin + base.size() + added.size());
    std::merge(base.begin(), base.end(), added.begin(), added.end(),
               col_idx.begin() + static_cast<std::ptrdiff_t>(row_begin));
    row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
  }

  result.extended = SparsityPattern(n, n, std::move(row_ptr), std::move(col_idx));
  FSAIC_CHECK(result.extended.nnz() == s.nnz() + result.total_added(),
              "extension bookkeeping mismatch");
  return result;
}

}  // namespace fsaic
