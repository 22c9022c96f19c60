// Determinism contract of the rank-local workload generators: identical
// global operators (bitwise, via EXPECT_EQ on the CSR arrays) regardless of
// rank count, thread count, or executor, plus golden FNV-1a fingerprints
// pinning each family's output across refactors.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hpp"
#include "exec/exec_policy.hpp"
#include "exec/executor.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/fingerprint.hpp"
#include "wgen/wgen.hpp"

namespace fsaic {
namespace {

using wgen::Family;
using wgen::ResolvedWorkload;
using wgen::WorkloadSpec;

// ---- spec parsing -------------------------------------------------------

TEST(WorkloadSpecTest, ParsesStencilSpec) {
  const WorkloadSpec s = wgen::parse_workload_spec("stencil3d:nx=8,ny=4,nz=2");
  EXPECT_EQ(s.family, Family::Stencil3D);
  EXPECT_EQ(s.nx, 8);
  EXPECT_EQ(s.ny, 4);
  EXPECT_EQ(s.nz, 2);
  EXPECT_EQ(s.seed, 1u);
}

TEST(WorkloadSpecTest, ParsesIssueExampleSpellings) {
  // "rpn=fixed" is an accepted no-op (fixed global size is the default);
  // "radius=auto" resolves at generation time.
  const WorkloadSpec a = wgen::parse_workload_spec("stencil3d:n=100,rpn=fixed");
  EXPECT_EQ(a.n, 100);
  EXPECT_EQ(a.rows_per_rank, 0);
  const WorkloadSpec b =
      wgen::parse_workload_spec("rgg2d:rows_per_rank=65536,radius=auto");
  EXPECT_EQ(b.rows_per_rank, 65536);
  EXPECT_EQ(b.radius, 0.0);
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)wgen::parse_workload_spec("nosuch:n=4"), Error);
  EXPECT_THROW((void)wgen::parse_workload_spec("stencil2d:bogus=1"), Error);
  EXPECT_THROW((void)wgen::parse_workload_spec("stencil2d:n=abc"), Error);
  EXPECT_THROW((void)wgen::parse_workload_spec("stencil2d:n="), Error);
  EXPECT_THROW((void)wgen::parse_workload_spec("stencil2d:,"), Error);
  EXPECT_THROW((void)wgen::parse_workload_spec("rgg2d:radius=1.5"), Error);
  EXPECT_THROW((void)wgen::resolve_workload(
                   wgen::parse_workload_spec("rgg2d:radius=0.1"), 4),
               Error);  // no point count given
}

TEST(WorkloadSpecTest, SpecStringRoundTrips) {
  for (const char* text :
       {"stencil3d:nx=8,ny=4,nz=2", "rgg2d:n=500,seed=7",
        "rmat:n=64,edge_factor=4,shift=1.5", "rgg3d:rows_per_rank=1000"}) {
    const WorkloadSpec s = wgen::parse_workload_spec(text);
    EXPECT_EQ(wgen::parse_workload_spec(s.to_string()), s) << text;
  }
}

TEST(WorkloadSpecTest, JsonRoundTrips) {
  const WorkloadSpec s =
      wgen::parse_workload_spec("rgg3d:n=300,seed=9,radius=0.2");
  const WorkloadSpec back =
      wgen::workload_spec_from_json(wgen::workload_spec_to_json(s));
  EXPECT_EQ(back, s);
  EXPECT_THROW((void)wgen::workload_spec_from_json(
                   JsonValue::parse(R"({"nx": 4})")),
               Error);
  EXPECT_THROW((void)wgen::workload_spec_from_json(
                   JsonValue::parse(R"({"family": "stencil2d", "nx": "x"})")),
               Error);
}

TEST(WorkloadSpecTest, IsWorkloadSpecSeparatesSuiteNames) {
  EXPECT_TRUE(wgen::is_workload_spec("stencil3d:n=10"));
  EXPECT_FALSE(wgen::is_workload_spec("poisson2d_64"));
}

// ---- resolution ---------------------------------------------------------

TEST(WorkloadResolveTest, WeakScalingGrowsLastDimension) {
  const WorkloadSpec s =
      wgen::parse_workload_spec("stencil3d:nx=8,ny=8,rows_per_rank=128");
  const ResolvedWorkload w1 = wgen::resolve_workload(s, 1);
  const ResolvedWorkload w4 = wgen::resolve_workload(s, 4);
  EXPECT_EQ(w1.rows, 128);
  EXPECT_EQ(w1.nz, 2);
  EXPECT_EQ(w4.rows, 512);
  EXPECT_EQ(w4.nz, 8);
  // Fixed-size specs ignore the rank count entirely.
  const WorkloadSpec f = wgen::parse_workload_spec("stencil3d:n=6");
  EXPECT_EQ(wgen::resolve_workload(f, 1), wgen::resolve_workload(f, 7));
}

TEST(WorkloadResolveTest, RmatRoundsUpToPowerOfTwo) {
  const ResolvedWorkload w =
      wgen::resolve_workload(wgen::parse_workload_spec("rmat:n=100"), 1);
  EXPECT_EQ(w.rows, 128);
  EXPECT_EQ(w.scale, 7);
  EXPECT_EQ(w.edges, 128 * 8);
}

TEST(WorkloadResolveTest, RggAutoRadiusKeepsCellSideAboveRadius) {
  for (const char* text : {"rgg2d:n=500", "rgg3d:n=300", "rgg2d:n=40000"}) {
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    ASSERT_GT(w.radius, 0.0) << text;
    EXPECT_LE(w.radius, 1.0 / static_cast<double>(w.cells)) << text;
  }
}

// ---- generation: differential vs sequential reference -------------------

const char* const kFamilySpecs[] = {
    "stencil2d:nx=13,ny=9",
    "stencil3d:nx=5,ny=6,nz=7",
    "stencil27:nx=5,ny=4,nz=3",
    "rgg2d:n=500,seed=3",
    "rgg3d:n=300,seed=5",
    "rmat:n=128,edge_factor=4,seed=7",
};

void expect_same_matrix(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::vector<offset_t>(a.row_ptr().begin(), a.row_ptr().end()),
            std::vector<offset_t>(b.row_ptr().begin(), b.row_ptr().end()));
  EXPECT_EQ(std::vector<index_t>(a.col_idx().begin(), a.col_idx().end()),
            std::vector<index_t>(b.col_idx().begin(), b.col_idx().end()));
  // EXPECT_EQ on doubles: bitwise-identical values, not approximately equal.
  EXPECT_EQ(std::vector<value_t>(a.values().begin(), a.values().end()),
            std::vector<value_t>(b.values().begin(), b.values().end()));
}

TEST(WgenDifferentialTest, EveryFamilyMatchesSequentialAssemblyAtAnyRankCount) {
  for (const char* text : kFamilySpecs) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const CsrMatrix global = wgen::generate_global(w);
    ASSERT_EQ(global.rows(), w.rows);
    const MatrixFingerprint ref = fingerprint_of(global);
    for (const rank_t nranks : {1, 2, 3, 5, 8}) {
      SCOPED_TRACE(nranks);
      wgen::WgenStats stats;
      const DistCsr d = wgen::generate_dist(w, nranks, CommConfig{}, &stats);
      expect_same_matrix(d.to_global(), global);
      EXPECT_EQ(fingerprint_rank_local(d), ref);
      EXPECT_EQ(stats.nnz, global.nnz());
      EXPECT_EQ(stats.rows, global.rows());
    }
  }
}

// Instances big enough that a rank's cell range sits well inside the
// domain: the widened neighbour range of every rank is clamped on at most
// one side, and ranks split cells.
const char* const kLargeRggSpecs[] = {
    "rgg2d:n=16384,seed=12345",
    "rgg3d:n=16384",
};

TEST(WgenDifferentialTest, LargeRggMatchesSequentialAssemblyAtAnyRankCount) {
  for (const char* text : kLargeRggSpecs) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const CsrMatrix global = wgen::generate_global(w);
    const MatrixFingerprint ref = fingerprint_of(global);
    for (const rank_t nranks : {1, 2, 3, 7, 8, 13}) {
      SCOPED_TRACE(nranks);
      const DistCsr d = wgen::generate_dist(w, nranks, CommConfig{});
      expect_same_matrix(d.to_global(), global);
      EXPECT_EQ(fingerprint_rank_local(d), ref);
    }
  }
}

/// generate_rows(w, r0, r1) against rows [r0, r1) of the full operator.
void expect_rows_match_slice(const ResolvedWorkload& w, const CsrMatrix& global,
                             index_t r0, index_t r1) {
  SCOPED_TRACE(testing::Message() << "rows [" << r0 << ", " << r1 << ")");
  const RankLocalRows rows = wgen::generate_rows(w, r0, r1);
  const offset_t e0 = global.row_ptr()[static_cast<std::size_t>(r0)];
  const offset_t e1 = global.row_ptr()[static_cast<std::size_t>(r1)];
  std::vector<offset_t> ptr;
  for (index_t i = r0; i <= r1; ++i) {
    ptr.push_back(global.row_ptr()[static_cast<std::size_t>(i)] - e0);
  }
  ASSERT_EQ(rows.row_ptr, ptr);
  EXPECT_EQ(rows.col_gids,
            std::vector<index_t>(global.col_idx().begin() + e0,
                                 global.col_idx().begin() + e1));
  EXPECT_EQ(rows.values, std::vector<value_t>(global.values().begin() + e0,
                                              global.values().begin() + e1));
}

TEST(WgenDifferentialTest, RggRowRangesMatchGlobalSlices) {
  // Small instances hold ~2-3 points per cell, so sweeping every start row
  // with short lengths covers ranges inside one cell, ranges starting and
  // ending mid-cell, the first and last cells, and empty ranges.
  for (const char* text : {"rgg2d:n=500,seed=3", "rgg3d:n=300,seed=5"}) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const CsrMatrix global = wgen::generate_global(w);
    for (const index_t len : {0, 1, 2, 3, 7}) {
      for (index_t r0 = 0; r0 + len <= w.rows; ++r0) {
        expect_rows_match_slice(w, global, r0, r0 + len);
      }
    }
  }
  for (const char* text : kLargeRggSpecs) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const CsrMatrix global = wgen::generate_global(w);
    const index_t n = w.rows;
    const std::pair<index_t, index_t> ranges[] = {
        {0, 0},         {0, 1},         {0, 2},     {0, 1000},
        {n - 1, n},     {n - 2, n},     {n - 1000, n}, {n, n},
        {777, 778},     {777, 779},     {777, 5555},   {8191, 8193},
        {5000, 5000},   {1, n - 1},
    };
    for (const auto& [r0, r1] : ranges) expect_rows_match_slice(w, global, r0, r1);
  }
}

TEST(WgenDifferentialTest, FromRankLocalBlocksMatchDistribute) {
  const ResolvedWorkload w = wgen::resolve_workload(
      wgen::parse_workload_spec("rgg2d:n=400,seed=11"), 1);
  const CsrMatrix global = wgen::generate_global(w);
  const rank_t nranks = 4;
  const DistCsr gen = wgen::generate_dist(w, nranks, CommConfig{});
  const DistCsr ref =
      DistCsr::distribute(global, Layout::blocked(w.rows, nranks), CommConfig{});
  for (rank_t p = 0; p < nranks; ++p) {
    SCOPED_TRACE(p);
    const RankBlock& g = gen.block(p);
    const RankBlock& r = ref.block(p);
    expect_same_matrix(g.matrix, r.matrix);
    EXPECT_EQ(g.ghost_gids, r.ghost_gids);
    EXPECT_EQ(g.local_entries, r.local_entries);
    EXPECT_EQ(g.halo_entries, r.halo_entries);
    EXPECT_EQ(g.interior_rows, r.interior_rows);
    EXPECT_EQ(g.boundary_rows, r.boundary_rows);
    ASSERT_EQ(g.recv.size(), r.recv.size());
    ASSERT_EQ(g.send.size(), r.send.size());
    for (std::size_t k = 0; k < g.recv.size(); ++k) {
      EXPECT_EQ(g.recv[k].rank, r.recv[k].rank);
      EXPECT_EQ(g.recv[k].gids, r.recv[k].gids);
    }
    for (std::size_t k = 0; k < g.send.size(); ++k) {
      EXPECT_EQ(g.send[k].rank, r.send[k].rank);
      EXPECT_EQ(g.send[k].gids, r.send[k].gids);
    }
  }
}

TEST(WgenDifferentialTest, ThreadedExecutorGeneratesIdenticalOperators) {
  const auto threaded = make_executor({.nthreads = 4});
  for (const char* text : kFamilySpecs) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const DistCsr seq = wgen::generate_dist(w, 6, CommConfig{});
    const DistCsr par =
        wgen::generate_dist(w, 6, CommConfig{}, nullptr, threaded.get());
    EXPECT_EQ(fingerprint_rank_local(seq), fingerprint_rank_local(par));
    expect_same_matrix(seq.to_global(), par.to_global());
  }
}

TEST(WgenTest, GeneratedOperatorsAreSymmetricWithPositiveDiagonal) {
  for (const char* text : kFamilySpecs) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const CsrMatrix global = wgen::generate_global(w);
    EXPECT_TRUE(global.is_symmetric());
    for (const value_t d : global.diagonal()) EXPECT_GT(d, 0.0);
  }
}

TEST(WgenTest, StatsProveRankLocalFootprint) {
  const ResolvedWorkload w = wgen::resolve_workload(
      wgen::parse_workload_spec("stencil3d:nx=16,ny=16,nz=64"), 1);
  wgen::WgenStats stats;
  (void)wgen::generate_dist(w, 8, CommConfig{}, &stats);
  EXPECT_EQ(stats.rows, 16 * 16 * 64);
  EXPECT_EQ(stats.nranks, 8);
  EXPECT_EQ(stats.max_rank_rows, 16 * 16 * 8);
  // Peak per-rank nnz ~ nnz / nranks: the blocked layout cuts between grid
  // planes, so the imbalance is one plane of entries at most.
  EXPECT_LT(stats.balance(), 1.05);
  EXPECT_GT(stats.generate_seconds, 0.0);
  EXPECT_EQ(stats.split_nodes, 0);
  EXPECT_EQ(stats.cell_streams, 0);
}

TEST(WgenTest, RggWorkIsLinearInTouchedCells) {
  for (const char* text : kLargeRggSpecs) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const bool three_d = w.family == Family::Rgg3D;
    const offset_t cells = w.cells;
    const offset_t ncells = three_d ? cells * cells * cells : cells * cells;
    // Linear cell distance to the farthest neighbour, and split-tree depth.
    const offset_t reach = three_d ? cells * cells + cells + 1 : cells + 1;
    offset_t depth = 0;
    while ((offset_t{1} << depth) < ncells) ++depth;

    // One range over the whole domain: every cell stream at most once, and
    // every split node at most once plus the two row-locating descents.
    wgen::WgenStats one;
    (void)wgen::generate_rows(w, 0, w.rows, &one);
    EXPECT_GT(one.cell_streams, 0);
    EXPECT_LE(one.cell_streams, ncells);
    EXPECT_LE(one.split_nodes, ncells - 1 + 2 * depth);

    for (const rank_t nranks : {2, 8, 13}) {
      SCOPED_TRACE(nranks);
      // Consecutive ranks share at most one own cell, and each rank widens
      // its own cells by `reach` on both sides.
      const offset_t touched = ncells + (nranks - 1) + nranks * 2 * reach;
      wgen::WgenStats stats;
      (void)wgen::generate_dist(w, nranks, CommConfig{}, &stats);
      EXPECT_LE(stats.cell_streams, touched);
      // The range descent visits at most one node per touched cell plus two
      // partial nodes per level; locating the first and last row adds two
      // root-to-leaf walks.
      EXPECT_LE(stats.split_nodes, touched + nranks * 4 * depth);
    }
  }
}

// ---- golden fingerprints ------------------------------------------------

// Pinned content hashes of small instances of every family. These freeze
// the exact bit patterns generated operators are made of: a refactor that
// changes hashing, point placement, edge descent, or value synthesis MUST
// show up here and bump the spec semantics deliberately.
TEST(WgenGoldenTest, SmallInstanceFingerprintsArePinned) {
  const std::pair<const char*, const char*> golden[] = {
      {"stencil2d:nx=13,ny=9", "80dc2db69395452c"},
      {"stencil3d:nx=5,ny=6,nz=7", "1df97ff41f6c008c"},
      {"stencil27:nx=5,ny=4,nz=3", "4f55c405871fccce"},
      {"rgg2d:n=500,seed=3", "2b9dbf0681b94380"},
      {"rgg3d:n=300,seed=5", "b1649e358e86b6e6"},
      {"rmat:n=128,edge_factor=4,seed=7", "79d6981ca97c606c"},
      {"rgg2d:n=16384,seed=12345", "5fade54793db9dd7"},
      {"rgg3d:n=16384", "11affdd232d906b8"},
  };
  for (const auto& [text, expected] : golden) {
    SCOPED_TRACE(text);
    const ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(text), 1);
    const DistCsr d = wgen::generate_dist(w, 3, CommConfig{});
    EXPECT_EQ(hash_hex(fingerprint_rank_local(d).content_hash), expected);
  }
}

// ---- end-to-end solve ---------------------------------------------------

TEST(WgenSolveTest, RankLocalPathSolvesBitIdenticallyToDistributePath) {
  const ResolvedWorkload w = wgen::resolve_workload(
      wgen::parse_workload_spec("stencil3d:nx=8,ny=8,nz=16"), 1);
  const rank_t nranks = 4;
  const DistCsr gen = wgen::generate_dist(w, nranks, CommConfig{});
  const DistCsr ref = DistCsr::distribute(
      wgen::generate_global(w), Layout::blocked(w.rows, nranks), CommConfig{});

  Rng rng(2022);
  std::vector<value_t> b(static_cast<std::size_t>(w.rows));
  for (auto& v : b) v = rng.next_uniform(-1.0, 1.0);

  const auto solve = [&](const DistCsr& a) {
    const JacobiPreconditioner jac(a);
    DistVector x(a.row_layout());
    SolveOptions opts;
    opts.rel_tol = 1e-8;
    opts.max_iterations = 400;
    opts.track_residual_history = true;
    return pcg_solve(a, DistVector(a.row_layout(), b), x, jac, opts);
  };
  const SolveResult rg = solve(gen);
  const SolveResult rr = solve(ref);
  EXPECT_TRUE(rg.converged);
  EXPECT_EQ(rg.iterations, rr.iterations);
  EXPECT_EQ(rg.residual_history, rr.residual_history);
}

// ---- from_rank_local validation -----------------------------------------

TEST(FromRankLocalTest, RejectsMalformedRows) {
  const Layout layout = Layout::blocked(4, 2);
  // Wrong row count for the rank.
  EXPECT_THROW((void)DistCsr::from_rank_local(
                   layout, [](rank_t) { return RankLocalRows{{0}, {}, {}}; },
                   CommConfig{}),
               Error);
  // Column id outside the layout.
  EXPECT_THROW(
      (void)DistCsr::from_rank_local(
          layout,
          [](rank_t) {
            return RankLocalRows{{0, 1, 2}, {0, 99}, {1.0, 1.0}};
          },
          CommConfig{}),
      Error);
}

}  // namespace
}  // namespace fsaic
