#include "core/adaptive.hpp"

#include <algorithm>

#include "dense/dense_matrix.hpp"
#include "dense/factorizations.hpp"
#include "exec/executor.hpp"

namespace fsaic {

SparsityPattern adaptive_fsai_pattern(const CsrMatrix& a,
                                      const AdaptiveOptions& options) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "adaptive FSAI requires a square matrix");
  FSAIC_REQUIRE(options.growth_steps >= 0, "growth steps must be >= 0");
  FSAIC_REQUIRE(options.entries_per_step >= 1, "entries per step must be >= 1");

  const index_t n = a.rows();
  std::vector<std::vector<index_t>> rows(static_cast<std::size_t>(n));

  // Rows grow independently; each executor slot reuses its own scratch.
  struct Scratch {
    std::vector<index_t> support;  // current S_i, sorted
    std::vector<value_t> g;        // local solution
    std::vector<std::pair<value_t, index_t>> scored;
  };
  Executor& exec = resolve_executor(nullptr);
  std::vector<Scratch> scratch(
      static_cast<std::size_t>(exec.parallel_for_width()));
  exec.parallel_for(n, [&](index_t i, int slot) {
    auto& [support, g, scored] = scratch[static_cast<std::size_t>(slot)];
    support.assign(1, i);
    for (int step = 0; step < options.growth_steps; ++step) {
      // Solve A(S,S) g = e_i on the current support.
      const auto m = static_cast<index_t>(support.size());
      DenseMatrix local(m, m);
      for (index_t r = 0; r < m; ++r) {
        for (index_t c = 0; c < m; ++c) {
          local(r, c) = a.at(support[static_cast<std::size_t>(r)],
                             support[static_cast<std::size_t>(c)]);
        }
      }
      g.assign(static_cast<std::size_t>(m), 0.0);
      // The diagonal i is the largest support index (lower-tri rows).
      const auto diag_pos = static_cast<std::size_t>(
          std::lower_bound(support.begin(), support.end(), i) -
          support.begin());
      g[diag_pos] = 1.0;
      if (!solve_spd_system(std::move(local), g)) break;

      // Candidate scores: |(A g)_k| for k < i reachable from the support.
      scored.clear();
      for (std::size_t sj = 0; sj < support.size(); ++sj) {
        const index_t j = support[sj];
        const auto cols = a.row_cols(j);
        for (index_t k : cols) {
          if (k >= i) continue;
          if (std::binary_search(support.begin(), support.end(), k)) continue;
          // Residual component (A g)_k = sum_{j in S} A(k, j) g_j;
          // accumulate lazily by scoring each candidate once.
          bool already = false;
          for (const auto& [sc, kk] : scored) {
            if (kk == k) {
              already = true;
              break;
            }
          }
          if (already) continue;
          value_t res = 0.0;
          for (std::size_t sj2 = 0; sj2 < support.size(); ++sj2) {
            res += a.at(k, support[sj2]) * g[sj2];
          }
          if (res != 0.0) scored.emplace_back(std::abs(res), k);
        }
      }
      if (scored.empty()) break;
      const auto take = std::min<std::size_t>(
          static_cast<std::size_t>(options.entries_per_step), scored.size());
      std::partial_sort(scored.begin(),
                        scored.begin() + static_cast<std::ptrdiff_t>(take),
                        scored.end(), std::greater<>{});
      for (std::size_t t = 0; t < take; ++t) {
        support.push_back(scored[t].second);
      }
      std::sort(support.begin(), support.end());
    }
    rows[static_cast<std::size_t>(i)] = support;
  });
  return SparsityPattern::from_rows(n, n, std::move(rows));
}

}  // namespace fsaic
