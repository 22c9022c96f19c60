#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "../core/gram_reference.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "core/spai.hpp"
#include "dist/dist_csr.hpp"
#include "exec/barrier.hpp"
#include "exec/exec_policy.hpp"
#include "exec/executor.hpp"
#include "exec/halo.hpp"
#include "exec/threaded_executor.hpp"
#include "matgen/generators.hpp"
#include "solver/pcg.hpp"
#include "solver/pipelined_cg.hpp"

namespace fsaic {
namespace {

// ---- Barrier ------------------------------------------------------------

TEST(BarrierTest, ReleasesAllPartiesAndIsReusableAcrossGenerations) {
  constexpr int kParties = 4;
  constexpr int kGenerations = 50;
  Barrier barrier(kParties);
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};

  std::vector<std::thread> team;
  team.reserve(kParties);
  for (int t = 0; t < kParties; ++t) {
    team.emplace_back([&] {
      for (int g = 0; g < kGenerations; ++g) {
        // If the barrier released a generation early, more than kParties
        // increments could be live between two waits.
        if (inside.fetch_add(1) + 1 > kParties) overlap = true;
        barrier.arrive_and_wait();
        inside.fetch_sub(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : team) th.join();

  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(barrier.generation(), 2u * kGenerations);
  EXPECT_EQ(barrier.parties(), kParties);
}

TEST(BarrierTest, SinglePartyNeverBlocks) {
  Barrier barrier(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(barrier.arrive_and_wait(), 0.0);
  }
  EXPECT_EQ(barrier.generation(), 10u);
}

// ---- executor determinism ----------------------------------------------

std::vector<value_t> random_partials(rank_t nranks, int width,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> p(static_cast<std::size_t>(nranks) *
                         static_cast<std::size_t>(width));
  for (auto& v : p) v = rng.next_uniform(-1.0, 1.0);
  return p;
}

TEST(ExecutorTest, TreeAllreduceIsBitIdenticalAcrossExecutorsAndWidths) {
  SeqExecutor seq;
  ThreadedExecutor two(2);
  ThreadedExecutor four(4);
  for (const rank_t nranks : {1, 2, 3, 7, 8, 13}) {
    for (const int width : {1, 3}) {
      const auto reference = random_partials(nranks, width, 77u + nranks);
      std::vector<value_t> out_seq(static_cast<std::size_t>(width));
      std::vector<value_t> out_two(out_seq);
      std::vector<value_t> out_four(out_seq);
      // The partials buffer is consumed destructively; give each executor
      // its own copy.
      auto a = reference;
      auto b = reference;
      auto c = reference;
      seq.allreduce_sum(a, width, out_seq);
      two.allreduce_sum(b, width, out_two);
      four.allreduce_sum(c, width, out_four);
      for (int w = 0; w < width; ++w) {
        // Bitwise equality, not EXPECT_NEAR: the determinism contract.
        EXPECT_EQ(out_seq[static_cast<std::size_t>(w)],
                  out_two[static_cast<std::size_t>(w)]);
        EXPECT_EQ(out_seq[static_cast<std::size_t>(w)],
                  out_four[static_cast<std::size_t>(w)]);
      }
    }
  }
}

TEST(ExecutorTest, ParallelRanksVisitsEveryRankExactlyOnce) {
  ThreadedExecutor exec(3);
  constexpr rank_t kRanks = 11;
  std::vector<int> visits(kRanks, 0);
  exec.parallel_ranks(kRanks, [&](rank_t p) {
    ++visits[static_cast<std::size_t>(p)];
  });
  for (const int v : visits) EXPECT_EQ(v, 1);
  EXPECT_GE(exec.stats().supersteps, 1u);
  EXPECT_EQ(exec.stats().nthreads, 3);
}

TEST(ExecutorTest, NestedParallelRanksFallsBackToInlineLoop) {
  ThreadedExecutor exec(2);
  std::vector<int> inner_visits(4, 0);
  // A rank body that re-enters the executor must not deadlock on the team
  // barriers; the nested superstep degrades to an inline loop on the
  // calling worker.
  exec.parallel_ranks(1, [&](rank_t) {
    exec.parallel_ranks(4, [&](rank_t q) {
      ++inner_visits[static_cast<std::size_t>(q)];
    });
  });
  for (const int v : inner_visits) EXPECT_EQ(v, 1);
}

TEST(ExecutorTest, ExceptionsInRankBodiesPropagateToTheCaller) {
  ThreadedExecutor exec(4);
  EXPECT_THROW(exec.parallel_ranks(8,
                                   [](rank_t p) {
                                     FSAIC_REQUIRE(p != 5, "rank 5 failed");
                                   }),
               Error);
  // The team must survive a throwing superstep and stay usable.
  std::atomic<int> count{0};
  exec.parallel_ranks(8, [&](rank_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

// ---- parallel_for -------------------------------------------------------

TEST(ParallelForTest, VisitsEveryIndexExactlyOnceOnBothExecutors) {
  SeqExecutor seq;
  ThreadedExecutor thr(4);
  for (Executor* exec : {static_cast<Executor*>(&seq),
                         static_cast<Executor*>(&thr)}) {
    constexpr index_t kItems = 1000;
    const int width = std::max(1, exec->parallel_for_width());
    std::vector<std::atomic<int>> visits(kItems);
    std::atomic<bool> slot_ok{true};
    exec->parallel_for(kItems, [&](index_t i, int slot) {
      if (slot < 0 || slot >= width) slot_ok = false;
      ++visits[static_cast<std::size_t>(i)];
    });
    EXPECT_TRUE(slot_ok.load());
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelForTest, EmptyAndTinyLoopsWork) {
  ThreadedExecutor exec(3);
  std::atomic<int> count{0};
  exec.parallel_for(0, [&](index_t, int) { ++count; });
  EXPECT_EQ(count.load(), 0);
  exec.parallel_for(1, [&](index_t, int) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, SlotPrivateAccumulatorsCoverTheWholeSum) {
  ThreadedExecutor exec(4);
  constexpr index_t kItems = 5000;
  std::vector<std::int64_t> partial(
      static_cast<std::size_t>(exec.parallel_for_width()), 0);
  exec.parallel_for(kItems, [&](index_t i, int slot) {
    partial[static_cast<std::size_t>(slot)] += i;
  });
  std::int64_t total = 0;
  for (const auto p : partial) total += p;
  EXPECT_EQ(total, static_cast<std::int64_t>(kItems) * (kItems - 1) / 2);
}

TEST(ParallelForTest, ExceptionsInItemBodiesPropagateToTheCaller) {
  // A throwing row body (a bad_alloc in a scratch resize, a rejected row)
  // must reach the caller on either executor, never terminate the process.
  SeqExecutor seq;
  ThreadedExecutor thr(4);
  for (Executor* exec : {static_cast<Executor*>(&seq),
                         static_cast<Executor*>(&thr)}) {
    EXPECT_THROW(exec->parallel_for(1000,
                                    [](index_t i, int) {
                                      FSAIC_REQUIRE(i != 517, "item 517 failed");
                                    }),
                 Error);
    // The executor stays usable after a throwing loop.
    std::atomic<int> count{0};
    exec->parallel_for(100, [&](index_t, int) { ++count; });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ParallelForTest, NestedInsideRankBodyDegradesToInlineLoop) {
  ThreadedExecutor exec(2);
  std::vector<std::atomic<int>> visits(16);
  exec.parallel_ranks(1, [&](rank_t) {
    // Must not deadlock on the team barriers, and must pass the calling
    // worker's slot so scratch indexing stays valid.
    exec.parallel_for(16, [&](index_t i, int slot) {
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, exec.parallel_for_width());
      ++visits[static_cast<std::size_t>(i)];
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

// ---- setup determinism across executors ---------------------------------

void expect_same_factor_bits(const CsrMatrix& x, const CsrMatrix& y) {
  ASSERT_EQ(x.nnz(), y.nnz());
  for (index_t i = 0; i < x.rows(); ++i) {
    const auto xv = x.row_vals(i);
    const auto yv = y.row_vals(i);
    ASSERT_EQ(xv.size(), yv.size()) << "row " << i;
    for (std::size_t k = 0; k < xv.size(); ++k) {
      EXPECT_EQ(xv[k], yv[k]) << "row " << i << " entry " << k;
    }
  }
}

TEST(ExecSetupTest, FsaiFactorIsBitIdenticalAcrossExecutors) {
  const auto a = poisson2d(15, 15);
  const auto s = fsai_base_pattern(a, 2, 0.0);

  SeqExecutor seq;
  FsaiComputeOptions opts;
  opts.exec = &seq;
  const auto g_seq = compute_fsai_factor(a, s, nullptr, opts);

  for (const int nthreads : {2, 5}) {
    ThreadedExecutor thr(nthreads);
    opts.exec = &thr;
    const auto g_thr = compute_fsai_factor(a, s, nullptr, opts);
    expect_same_factor_bits(g_seq, g_thr);
  }
}

TEST(ExecSetupTest, LaneBatchedFsaiFactorIsBitIdenticalAcrossExecutors) {
  // 2744 rows: several row blocks for the team to claim, each dominated by
  // full lane groups of equal-length 27-point rows.
  const auto a = stencil27(14, 14, 14);
  const auto s = fsai_base_pattern(a, 1, 0.0);

  SeqExecutor seq;
  FsaiComputeOptions opts;
  opts.exec = &seq;
  FsaiFactorStats seq_stats;
  const auto g_seq = compute_fsai_factor(a, s, &seq_stats, opts);

  ThreadedExecutor thr(4);
  opts.exec = &thr;
  FsaiFactorStats thr_stats;
  const auto g_thr = compute_fsai_factor(a, s, &thr_stats, opts);
  expect_same_factor_bits(g_seq, g_thr);
  EXPECT_EQ(seq_stats, thr_stats);
  EXPECT_EQ(seq_stats.rows_solved, a.rows());
}

TEST(ExecSetupTest, FilteredBuildIsBitIdenticalAcrossExecutors) {
  const auto a = poisson2d(14, 14);
  const Layout layout = Layout::blocked(a.rows(), 4);
  FsaiOptions fopts;
  fopts.extension = ExtensionMode::CommAware;
  fopts.cache_line_bytes = 256;
  fopts.filter = 0.05;

  SeqExecutor seq;
  fopts.exec = &seq;
  const auto build_seq = build_fsai_preconditioner(a, layout, fopts);

  for (const int nthreads : {2, 5}) {
    ThreadedExecutor thr(nthreads);
    fopts.exec = &thr;
    const auto build_thr = build_fsai_preconditioner(a, layout, fopts);
    expect_same_factor_bits(build_seq.g, build_thr.g);
    // The row accounting is schedule-independent too.
    EXPECT_EQ(build_seq.factor_stats.rows_solved,
              build_thr.factor_stats.rows_solved);
    EXPECT_EQ(build_seq.provisional_factor_stats.rows_solved,
              build_thr.provisional_factor_stats.rows_solved);
  }
}

TEST(ExecSetupTest, SpaiIsBitIdenticalAcrossExecutorsAndToTheOracle) {
  const auto a = poisson2d(10, 10);
  const auto s = a.pattern();

  SpaiComputeOptions opts;
  SeqExecutor seq;
  opts.exec = &seq;
  const auto m_seq = compute_spai(a, s, opts);
  expect_same_factor_bits(oracle::reference_spai(a, s), m_seq);

  ThreadedExecutor thr(3);
  opts.exec = &thr;
  const auto m_thr = compute_spai(a, s, opts);
  expect_same_factor_bits(m_seq, m_thr);
}

// ---- ExecPolicy ---------------------------------------------------------

TEST(ExecPolicyTest, FromEnvParsesClampsAndDefaults) {
  ::unsetenv("FSAIC_THREADS");
  EXPECT_EQ(ExecPolicy::from_env().nthreads, 1);
  EXPECT_FALSE(ExecPolicy::from_env().threaded());
  ::setenv("FSAIC_THREADS", "4", 1);
  EXPECT_EQ(ExecPolicy::from_env().nthreads, 4);
  EXPECT_TRUE(ExecPolicy::from_env().threaded());
  ::setenv("FSAIC_THREADS", "0", 1);
  EXPECT_EQ(ExecPolicy::from_env().nthreads, 1);
  ::setenv("FSAIC_THREADS", "100000", 1);
  EXPECT_EQ(ExecPolicy::from_env().nthreads, 256);
  ::setenv("FSAIC_THREADS", "not-a-number", 1);
  EXPECT_EQ(ExecPolicy::from_env().nthreads, 1);
  ::unsetenv("FSAIC_THREADS");
}

TEST(ExecPolicyTest, MakeExecutorSelectsTheEngine) {
  EXPECT_FALSE(make_executor({.nthreads = 1})->threaded());
  const auto threaded = make_executor({.nthreads = 3});
  EXPECT_TRUE(threaded->threaded());
  EXPECT_EQ(threaded->nthreads(), 3);
}

// ---- halo exchange ------------------------------------------------------

TEST(HaloExchangerTest, ThreadedSpmvIsBitIdenticalToSequentialSpmv) {
  const auto a = poisson2d(17, 13);
  // Deliberately uneven partition so ranks multiplex onto threads and the
  // neighbor structure is irregular.
  const Layout layout = Layout::from_part_sizes(
      std::vector<index_t>{40, 3, 78, 0, 60, 40});
  ASSERT_EQ(layout.global_size(), a.rows());
  const auto d = DistCsr::distribute(a, layout);

  Rng rng(11);
  std::vector<value_t> xg(static_cast<std::size_t>(a.rows()));
  for (auto& v : xg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector x(layout, xg);

  SeqExecutor seq;
  DistVector y_seq(layout);
  CommStats stats_seq;
  d.spmv(x, y_seq, &stats_seq, nullptr, &seq);

  for (const int nthreads : {2, 4, 8}) {
    ThreadedExecutor exec(nthreads);
    DistVector y_thr(layout);
    CommStats stats_thr;
    d.spmv(x, y_thr, &stats_thr, nullptr, &exec);
    EXPECT_EQ(y_seq.to_global(), y_thr.to_global()) << nthreads << " threads";
    // The mailbox fabric must account identical traffic to the sequential
    // path: same messages, bytes, and per-pair breakdown.
    EXPECT_EQ(stats_seq.halo_messages, stats_thr.halo_messages);
    EXPECT_EQ(stats_seq.halo_bytes, stats_thr.halo_bytes);
    EXPECT_EQ(stats_seq.pair_bytes, stats_thr.pair_bytes);
  }
  EXPECT_GT(d.halo().deposits(), 0u);
}

TEST(HaloExchangerTest, RepeatedExchangesReuseTheMailboxes) {
  const auto a = poisson2d(8, 8);
  const Layout layout = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, layout);
  const DistVector x(layout, std::vector<value_t>(
                                 static_cast<std::size_t>(a.rows()), 1.0));
  ThreadedExecutor exec(4);
  DistVector y(layout);
  const auto before = d.halo().deposits();
  for (int i = 0; i < 5; ++i) {
    d.spmv(x, y, nullptr, nullptr, &exec);
  }
  const auto per_exchange = d.halo_update_messages();
  EXPECT_EQ(d.halo().deposits() - before,
            5u * static_cast<std::uint64_t>(per_exchange));
}

// ---- phased supersteps and async allreduce ------------------------------

TEST(ExecutorTest, PhasedSuperstepRunsAllPostsBeforeAnyWorkPerSlice) {
  // Within each thread's rank slice every post() must complete before the
  // first work() starts; that ordering is what lets sends overlap compute.
  for (const int nthreads : {2, 3}) {
    ThreadedExecutor exec(nthreads);
    constexpr rank_t kRanks = 10;
    std::vector<int> posted(kRanks, 0);
    std::vector<int> worked(kRanks, 0);
    std::atomic<bool> order_ok{true};
    exec.parallel_ranks_phased(
        kRanks,
        [&](rank_t p) { posted[static_cast<std::size_t>(p)] = 1; },
        [&](rank_t p) {
          // Block-distributed slices are contiguous: every rank in this
          // rank's slice must already be posted.
          for (int t = 0; t < nthreads; ++t) {
            const rank_t lo = static_cast<rank_t>(
                static_cast<std::int64_t>(t) * kRanks / nthreads);
            const rank_t hi = static_cast<rank_t>(
                static_cast<std::int64_t>(t + 1) * kRanks / nthreads);
            if (p < lo || p >= hi) continue;
            for (rank_t q = lo; q < hi; ++q) {
              if (posted[static_cast<std::size_t>(q)] == 0) order_ok = false;
            }
          }
          worked[static_cast<std::size_t>(p)] = 1;
        });
    EXPECT_TRUE(order_ok.load()) << nthreads << " threads";
    for (rank_t p = 0; p < kRanks; ++p) {
      EXPECT_EQ(posted[static_cast<std::size_t>(p)], 1);
      EXPECT_EQ(worked[static_cast<std::size_t>(p)], 1);
    }
  }
}

TEST(ExecutorTest, PhasedSuperstepDegradesInlineWhenNested) {
  ThreadedExecutor exec(2);
  std::atomic<int> posts{0};
  std::atomic<int> works{0};
  exec.parallel_ranks(1, [&](rank_t) {
    exec.parallel_ranks_phased(4, [&](rank_t) { ++posts; },
                               [&](rank_t) { ++works; });
  });
  EXPECT_EQ(posts.load(), 4);
  EXPECT_EQ(works.load(), 4);
}

TEST(ExecutorTest, AsyncAllreduceMatchesBlockingBitForBit) {
  SeqExecutor seq;
  ThreadedExecutor thr(3);
  for (Executor* exec : {static_cast<Executor*>(&seq),
                         static_cast<Executor*>(&thr)}) {
    for (const rank_t nranks : {1, 3, 8}) {
      const auto reference = random_partials(nranks, 2, 31u + nranks);
      std::vector<value_t> blocking(2);
      auto copy = reference;
      exec->allreduce_sum(copy, 2, blocking);

      auto moved = reference;
      AsyncAllreduce handle = exec->allreduce_begin(std::move(moved), 2);
      EXPECT_TRUE(handle.pending());
      std::vector<value_t> async(2);
      handle.wait(async);
      EXPECT_FALSE(handle.pending());
      // Same fixed-order tree, same bits — async is a latency tool, not a
      // different reduction.
      EXPECT_EQ(blocking, async);
    }
  }
}

TEST(ExecutorTest, AsyncAllreducesCompleteInFifoOrderUnderLoad) {
  ThreadedExecutor exec(4);
  constexpr int kInflight = 16;
  std::vector<AsyncAllreduce> handles;
  handles.reserve(kInflight);
  for (int i = 0; i < kInflight; ++i) {
    std::vector<value_t> partials(8, static_cast<value_t>(i + 1));
    handles.push_back(exec.allreduce_begin(std::move(partials), 1));
  }
  for (int i = 0; i < kInflight; ++i) {
    std::vector<value_t> out(1);
    handles[static_cast<std::size_t>(i)].wait(out);
    EXPECT_EQ(out[0], 8.0 * (i + 1));
  }
}

// ---- node-aware halo exchange -------------------------------------------

TEST(NodeAwareHaloTest, ThreadedNodeAwareSpmvMatchesFlatBitForBit) {
  const auto a = poisson2d(17, 13);
  const Layout layout = Layout::from_part_sizes(
      std::vector<index_t>{40, 3, 78, 0, 60, 40});
  ASSERT_EQ(layout.global_size(), a.rows());
  const auto flat = DistCsr::distribute(a, layout, CommConfig{});
  const auto aware =
      DistCsr::distribute(a, layout, CommConfig{CommMode::NodeAware, 2});

  Rng rng(11);
  std::vector<value_t> xg(static_cast<std::size_t>(a.rows()));
  for (auto& v : xg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector x(layout, xg);

  SeqExecutor seq;
  DistVector y_flat(layout);
  flat.spmv(x, y_flat, nullptr, nullptr, &seq);

  for (const int nthreads : {2, 4, 8}) {
    ThreadedExecutor exec(nthreads);
    DistVector y_na(layout);
    CommStats stats;
    aware.spmv(x, y_na, &stats, nullptr, &exec);
    EXPECT_EQ(y_flat.to_global(), y_na.to_global()) << nthreads << " threads";
    EXPECT_EQ(stats.halo_messages, aware.halo_update_messages());
    EXPECT_EQ(stats.halo_intra_messages + stats.halo_inter_messages,
              stats.halo_messages);
  }
}

TEST(NodeAwareHaloTest, LeaderFunnelSurvivesRepeatedRacedExchanges) {
  // Many ranks, few nodes: every inter-node channel has several
  // contributors racing to fill their segments while the destination
  // drains. TSAN runs this test in CI; any missing synchronization in the
  // last-contributor-closes protocol shows up as a reported race.
  const auto a = poisson2d(24, 24);
  const Layout layout = Layout::blocked(a.rows(), 16);
  const auto d =
      DistCsr::distribute(a, layout, CommConfig{CommMode::NodeAware, 4});
  Rng rng(3);
  std::vector<value_t> xg(static_cast<std::size_t>(a.rows()));
  for (auto& v : xg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector x(layout, xg);

  SeqExecutor seq;
  DistVector y_ref(layout);
  d.spmv(x, y_ref, nullptr, nullptr, &seq);
  const auto ref = y_ref.to_global();

  ThreadedExecutor exec(8);
  const auto before = d.halo().deposits();
  constexpr int kRounds = 20;
  for (int i = 0; i < kRounds; ++i) {
    DistVector y(layout);
    d.spmv(x, y, nullptr, nullptr, &exec);
    ASSERT_EQ(y.to_global(), ref) << "round " << i;
  }
  // Deposits count wire deliveries: intra mailbox posts plus one channel
  // close per inter-node pair, i.e. the aggregated message count.
  EXPECT_EQ(d.halo().deposits() - before,
            static_cast<std::uint64_t>(kRounds) *
                static_cast<std::uint64_t>(d.halo_update_messages()));
}

// ---- solver determinism -------------------------------------------------

TEST(ExecSolverTest, CgResidualHistoryIsBitIdenticalThreadedVsSequential) {
  const auto a = poisson2d(20, 20);
  const Layout layout = Layout::blocked(a.rows(), 8);
  const auto d = DistCsr::distribute(a, layout);
  Rng rng(5);
  std::vector<value_t> bg(static_cast<std::size_t>(a.rows()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector b(layout, bg);

  FsaiOptions fopts;
  fopts.extension = ExtensionMode::CommAware;
  fopts.filter = 0.1;
  const auto build = build_fsai_preconditioner(a, layout, fopts);
  const auto precond = make_factorized_preconditioner(build, "fsaie-comm");

  SeqExecutor seq;
  SolveOptions opts;
  opts.rel_tol = 1e-10;
  opts.track_residual_history = true;
  opts.exec = &seq;
  DistVector x_seq(layout);
  const auto r_seq = pcg_solve(d, b, x_seq, *precond, opts);
  ASSERT_TRUE(r_seq.converged);

  ThreadedExecutor thr(4);
  opts.exec = &thr;
  DistVector x_thr(layout);
  const auto r_thr = pcg_solve(d, b, x_thr, *precond, opts);
  ASSERT_TRUE(r_thr.converged);

  EXPECT_EQ(r_seq.iterations, r_thr.iterations);
  EXPECT_EQ(r_seq.residual_history, r_thr.residual_history);
  EXPECT_EQ(x_seq.to_global(), x_thr.to_global());
}

TEST(ExecSolverTest, PipelinedCgIsBitIdenticalThreadedVsSequential) {
  const auto a = poisson2d(16, 16);
  const Layout layout = Layout::blocked(a.rows(), 5);
  const auto d = DistCsr::distribute(a, layout);
  Rng rng(9);
  std::vector<value_t> bg(static_cast<std::size_t>(a.rows()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector b(layout, bg);
  const JacobiPreconditioner jacobi(d);

  SeqExecutor seq;
  SolveOptions opts;
  opts.rel_tol = 1e-9;
  opts.track_residual_history = true;
  opts.exec = &seq;
  DistVector x_seq(layout);
  const auto r_seq = pcg_solve_pipelined(d, b, x_seq, jacobi, opts);
  ASSERT_TRUE(r_seq.converged);

  ThreadedExecutor thr(3);
  opts.exec = &thr;
  DistVector x_thr(layout);
  const auto r_thr = pcg_solve_pipelined(d, b, x_thr, jacobi, opts);
  ASSERT_TRUE(r_thr.converged);

  EXPECT_EQ(r_seq.iterations, r_thr.iterations);
  EXPECT_EQ(r_seq.residual_history, r_thr.residual_history);
}

}  // namespace
}  // namespace fsaic
