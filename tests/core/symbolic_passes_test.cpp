// Bit-identity of the flat symbolic setup passes (filtering, cache-line
// extension, symmetric permutation, rank-block construction) against the
// implementations they replaced, kept as oracles in symbolic_reference.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/filtering.hpp"
#include "core/fsai.hpp"
#include "core/fsai_driver.hpp"
#include "core/pattern_extend.hpp"
#include "dist/dist_csr.hpp"
#include "matgen/generators.hpp"
#include "sparse/ops.hpp"
#include "symbolic_reference.hpp"
#include "wgen/wgen.hpp"

namespace fsaic {
namespace {

std::vector<std::uint64_t> bits_of(std::span<const value_t> v) {
  std::vector<std::uint64_t> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(value_t));
  return out;
}

template <typename T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_same_pattern(const SparsityPattern& got, const SparsityPattern& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(vec(got.row_ptr()), vec(want.row_ptr()));
  EXPECT_EQ(vec(got.col_idx()), vec(want.col_idx()));
}

/// Pattern arrays plus value bits (so -0.0 and +0.0 differ).
void expect_same_matrix(const CsrMatrix& got, const CsrMatrix& want) {
  expect_same_pattern(got.pattern(), want.pattern());
  EXPECT_EQ(bits_of(got.values()), bits_of(want.values()));
}

void expect_same_outcome(const FilterOutcome& got, const FilterOutcome& want) {
  expect_same_pattern(got.pattern, want.pattern);
  EXPECT_EQ(bits_of(got.rank_filter), bits_of(want.rank_filter));
  EXPECT_EQ(got.rank_entries, want.rank_entries);
  EXPECT_EQ(got.bisection_iterations, want.bisection_iterations);
}

void expect_same_block(const RankBlock& got, const RankBlock& want) {
  expect_same_matrix(got.matrix, want.matrix);
  EXPECT_EQ(got.ghost_gids, want.ghost_gids);
  ASSERT_EQ(got.recv.size(), want.recv.size());
  for (std::size_t k = 0; k < got.recv.size(); ++k) {
    EXPECT_EQ(got.recv[k].rank, want.recv[k].rank);
    EXPECT_EQ(got.recv[k].gids, want.recv[k].gids);
  }
  EXPECT_EQ(got.local_entries, want.local_entries);
  EXPECT_EQ(got.halo_entries, want.halo_entries);
  EXPECT_EQ(got.interior_rows, want.interior_rows);
  EXPECT_EQ(got.boundary_rows, want.boundary_rows);
}

/// Rank p's rows of `a` in the from_rank_local hand-off format.
RankLocalRows rank_rows_of(const CsrMatrix& a, const Layout& layout, rank_t p) {
  RankLocalRows rows;
  rows.row_ptr.push_back(0);
  for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    rows.col_gids.insert(rows.col_gids.end(), cols.begin(), cols.end());
    rows.values.insert(rows.values.end(), vals.begin(), vals.end());
    rows.row_ptr.push_back(static_cast<offset_t>(rows.col_gids.size()));
  }
  return rows;
}

/// Every block of distribute(a) and of from_rank_local(a's rows) against
/// the oracle block build.
void expect_distribution_matches(const CsrMatrix& a, const Layout& layout) {
  const DistCsr global = DistCsr::distribute(a, layout, CommConfig{});
  const DistCsr local = DistCsr::from_rank_local(
      layout, [&](rank_t p) { return rank_rows_of(a, layout, p); }, CommConfig{});
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    SCOPED_TRACE("rank " + std::to_string(p));
    const RankBlock want =
        oracle::reference_rank_block(layout, p, rank_rows_of(a, layout, p));
    expect_same_block(global.block(p), want);
    expect_same_block(local.block(p), want);
  }
}

std::vector<index_t> shuffled_identity(index_t n, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  Rng rng(seed);
  for (index_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<index_t>(rng.next_u64() % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

struct Case {
  std::string name;
  CsrMatrix a;
  Layout layout;
  int line_bytes = 64;  ///< cache line of the filtering runs
  /// Dynamic filter search limits: SkewedLayoutGetsRebalanced's for its
  /// layout, shorter elsewhere so the oracle's bisections stay cheap.
  int rebalance_rounds = 8;
  int max_bisection_steps = 10;
};

CsrMatrix wgen_global(const std::string& spec) {
  return wgen::generate_global(
      wgen::resolve_workload(wgen::parse_workload_spec(spec), 1));
}

std::vector<Case> cases() {
  std::vector<Case> out;
  {
    auto sys = partition_system(wgen_global("stencil3d:nx=12,ny=10,nz=8"), 4);
    out.push_back({"stencil3d partitioned", std::move(sys.matrix), sys.layout});
  }
  {
    auto sys = partition_system(wgen_global("rgg2d:n=2500,seed=3"), 3);
    out.push_back({"rgg2d partitioned", std::move(sys.matrix), sys.layout});
  }
  {
    CsrMatrix a = random_spd(400, 6, 11);
    const Layout layout = Layout::blocked(a.rows(), 5);
    out.push_back({"random spd", std::move(a), layout});
  }
  {
    CsrMatrix a = poisson2d(20, 20);
    const Layout layout = Layout::blocked(a.rows(), 1);
    out.push_back({"one rank", std::move(a), layout});
  }
  {
    CsrMatrix a = poisson2d(18, 18);
    const index_t n = a.rows();
    out.push_back({"empty ranks", std::move(a), Layout({0, 0, n / 3, n / 3, n})});
  }
  {
    // DynamicFilterTest.SkewedLayoutGetsRebalanced's layout: rank 0 owns 3/4
    // of the rows and its filter is raised by bisection.
    CsrMatrix a = poisson2d(16, 16);
    const index_t n = a.rows();
    out.push_back({"skewed", std::move(a), Layout({0, 3 * n / 4, n}), 256, 12, 30});
  }
  return out;
}

TEST(SymbolicPassesTest, ExtensionMatchesOracle) {
  for (const Case& c : cases()) {
    const auto base = fsai_base_pattern(c.a, 1, 0.0);
    for (const auto mode : {ExtensionMode::None, ExtensionMode::LocalOnly,
                            ExtensionMode::CommAware, ExtensionMode::FullHalo}) {
      for (const int line : {64, 256}) {
        SCOPED_TRACE(c.name + " " + to_string(mode) + " line " + std::to_string(line));
        const auto got = extend_pattern(base, c.layout, line, mode);
        const auto want = oracle::reference_extend_pattern(base, c.layout, line, mode);
        expect_same_pattern(got.extended, want.extended);
        EXPECT_EQ(got.local_added, want.local_added);
        EXPECT_EQ(got.halo_added, want.halo_added);
      }
    }
  }
}

TEST(SymbolicPassesTest, FilteringMatchesOracle) {
  int bisecting_runs = 0;
  for (const Case& c : cases()) {
    const auto base = fsai_base_pattern(c.a, 1, 0.0);
    for (const auto mode : {ExtensionMode::LocalOnly, ExtensionMode::CommAware,
                            ExtensionMode::FullHalo}) {
      const auto ext = extend_pattern(base, c.layout, c.line_bytes, mode);
      const CsrMatrix g_ext = compute_fsai_factor(c.a, ext.extended);
      for (const bool only_added : {true, false}) {
        for (const value_t f : {0.0, 0.001, 0.05}) {
          SCOPED_TRACE(c.name + " " + to_string(mode) + " only_added " +
                       std::to_string(only_added) + " f " + std::to_string(f));
          FilterOptions opts;
          opts.filter = f;
          opts.only_added_entries = only_added;
          opts.rebalance_rounds = c.rebalance_rounds;
          opts.max_bisection_steps = c.max_bisection_steps;
          expect_same_outcome(static_filter(g_ext, base, c.layout, opts),
                              oracle::reference_static_filter(g_ext, base, c.layout, opts));
          if (f == 0.0) continue;  // dynamic f = 0 only bisects longer
          CommStats got_stats;
          CommStats want_stats;
          const auto got = dynamic_filter(g_ext, base, c.layout, opts, &got_stats);
          const auto want = oracle::reference_dynamic_filter(g_ext, base, c.layout,
                                                             opts, &want_stats);
          expect_same_outcome(got, want);
          EXPECT_EQ(got_stats.allreduce_count, want_stats.allreduce_count);
          if (got.bisection_iterations > 0) ++bisecting_runs;
        }
      }
    }
  }
  // The rank-recount path of the final assembly must have been exercised.
  EXPECT_GT(bisecting_runs, 0);
}

TEST(SymbolicPassesTest, PermutationMatchesOracle) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto perm = shuffled_identity(c.a.rows(), 42);
    expect_same_matrix(permute_symmetric(c.a, perm),
                       oracle::reference_permute_symmetric(c.a, perm));
  }
  const CsrMatrix raw = wgen_global("stencil3d:nx=12,ny=10,nz=8");
  const auto sys = partition_system(raw, 4);
  expect_same_matrix(sys.matrix, oracle::reference_permute_symmetric(raw, sys.perm));
}

TEST(SymbolicPassesTest, PermutationTurnsNegativeZeroPositiveLikeTheOracle) {
  // 3x3 with an explicit -0.0 off-diagonal pair.
  const CsrMatrix a(3, 3, {0, 2, 4, 5}, {0, 1, 0, 1, 2}, {4.0, -0.0, -0.0, 5.0, 6.0});
  const std::vector<index_t> perm{2, 0, 1};
  const CsrMatrix got = permute_symmetric(a, perm);
  expect_same_matrix(got, oracle::reference_permute_symmetric(a, perm));
  for (const value_t v : got.values()) EXPECT_FALSE(std::signbit(v));
}

TEST(SymbolicPassesTest, PermutationRejectsNonPermutations) {
  const CsrMatrix a = poisson2d(3, 3);
  std::vector<index_t> perm(9);
  for (index_t i = 0; i < 9; ++i) perm[static_cast<std::size_t>(i)] = i;
  perm[4] = 3;  // 3 twice, 4 never
  EXPECT_THROW((void)permute_symmetric(a, perm), Error);
  perm[4] = 9;  // out of range
  EXPECT_THROW((void)permute_symmetric(a, perm), Error);
}

TEST(SymbolicPassesTest, RankBlocksMatchOracle) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    expect_distribution_matches(c.a, c.layout);
    const auto base = fsai_base_pattern(c.a, 1, 0.0);
    const auto ext = extend_pattern(base, c.layout, 64, ExtensionMode::CommAware);
    const CsrMatrix g = compute_fsai_factor(c.a, ext.extended);
    expect_distribution_matches(g, c.layout);
    expect_distribution_matches(transpose(g), c.layout);
  }
}

TEST(SymbolicPassesTest, GeneratedRankBlocksMatchOracle) {
  for (const char* spec : {"rgg2d:n=3000,seed=5", "stencil3d:nx=9,ny=7,nz=6"}) {
    SCOPED_TRACE(spec);
    const auto w = wgen::resolve_workload(wgen::parse_workload_spec(spec), 4);
    const DistCsr d = wgen::generate_dist(w, 4, CommConfig{});
    const Layout layout = Layout::blocked(w.rows, 4);
    for (rank_t p = 0; p < 4; ++p) {
      expect_same_block(d.block(p),
                        oracle::reference_rank_block(
                            layout, p, wgen::generate_rows(w, layout.begin(p), layout.end(p))));
    }
  }
}

TEST(SymbolicPassesTest, FromRankLocalRejectsUnsortedRowsAndBadRowPtr) {
  const Layout layout = Layout::blocked(4, 2);
  // Row 0 lists column 1 before column 0.
  EXPECT_THROW((void)DistCsr::from_rank_local(
                   layout,
                   [](rank_t) {
                     return RankLocalRows{{0, 2, 3}, {1, 0, 1}, {1.0, 1.0, 1.0}};
                   },
                   CommConfig{}),
               Error);
  EXPECT_THROW((void)DistCsr::from_rank_local(
                   layout,
                   [](rank_t) { return RankLocalRows{{0, 2, 1}, {0}, {1.0}}; },
                   CommConfig{}),
               Error);
}

}  // namespace
}  // namespace fsaic
