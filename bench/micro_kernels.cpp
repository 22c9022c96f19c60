// google-benchmark microbenchmarks of the library's hot kernels: SpMV
// (serial and distributed with halo update), the FSAI row solves, the
// pattern extension at several cache-line sizes, the partitioner, and the
// cache-model replay. These measure the *implementation's* wall-clock, as
// opposed to the table/figure harnesses which report modeled cluster time.
#include <benchmark/benchmark.h>

#include "cachesim/cache_model.hpp"
#include "core/fsai_driver.hpp"
#include "graph/partition.hpp"
#include "matgen/generators.hpp"
#include "solver/pcg.hpp"
#include "sparse/ops.hpp"

namespace {

using namespace fsaic;

void BM_SpmvPoisson(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a = poisson2d(n, n);
  std::vector<value_t> x(static_cast<std::size_t>(a.cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    spmv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvPoisson)->Arg(64)->Arg(128)->Arg(256);

void BM_DistSpmvHalo(benchmark::State& state) {
  const auto nranks = static_cast<rank_t>(state.range(0));
  const auto a = poisson2d(128, 128);
  const Layout l = Layout::blocked(a.rows(), nranks);
  const auto d = DistCsr::distribute(a, l);
  DistVector x(l);
  x.fill(1.0);
  DistVector y(l);
  for (auto _ : state) {
    d.spmv(x, y);
    benchmark::DoNotOptimize(&y);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_DistSpmvHalo)->Arg(1)->Arg(4)->Arg(16);

void BM_FsaiRowSolves(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a = stencil27(n, n, n, 0.1);
  const auto s = fsai_base_pattern(a, 1, 0.0);
  for (auto _ : state) {
    auto g = compute_fsai_factor(a, s);
    benchmark::DoNotOptimize(g.values().data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_FsaiRowSolves)->Arg(8)->Arg(12);

void BM_PatternExtension(benchmark::State& state) {
  const int line = static_cast<int>(state.range(0));
  const auto a = poisson2d(96, 96);
  const auto s = fsai_base_pattern(a, 1, 0.0);
  const Layout l = Layout::blocked(a.rows(), 8);
  for (auto _ : state) {
    auto r = extend_pattern(s, l, line, ExtensionMode::CommAware);
    benchmark::DoNotOptimize(&r);
  }
  state.SetItemsProcessed(state.iterations() * s.nnz());
}
BENCHMARK(BM_PatternExtension)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_Partitioner(benchmark::State& state) {
  const auto nparts = static_cast<index_t>(state.range(0));
  const auto a = poisson2d(96, 96);
  const Graph g = Graph::from_pattern(a.pattern());
  for (auto _ : state) {
    auto part = partition_graph(g, nparts);
    benchmark::DoNotOptimize(part.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_Partitioner)->Arg(2)->Arg(8)->Arg(32);

void BM_CacheReplay(benchmark::State& state) {
  const auto a = poisson2d(128, 128);
  const CacheConfig cfg{.line_bytes = 64, .size_bytes = 32 * 1024,
                        .associativity = 8};
  for (auto _ : state) {
    auto r = replay_spmv_x_accesses(a, cfg);
    benchmark::DoNotOptimize(&r);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CacheReplay);

void BM_PcgIteration(benchmark::State& state) {
  const auto a = poisson2d(96, 96);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const auto build = build_fsai_preconditioner(a, l, FsaiOptions{});
  const auto precond = make_factorized_preconditioner(build, "fsai");
  DistVector b(l);
  b.fill(1.0);
  for (auto _ : state) {
    DistVector x(l);
    auto r = pcg_solve(d, b, x, *precond, {.rel_tol = 0.5, .max_iterations = 1});
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_PcgIteration);

void BM_DynamicFilter(benchmark::State& state) {
  const auto a = poisson2d(64, 64);
  const index_t n = a.rows();
  const Layout layout({0, 3 * n / 4, n});  // skewed: forces bisection work
  const auto base = fsai_base_pattern(a, 1, 0.0);
  const auto ext = extend_pattern(base, layout, 256, ExtensionMode::CommAware);
  const auto g_ext = compute_fsai_factor(a, ext.extended);
  FilterOptions opts;
  opts.filter = 0.001;
  for (auto _ : state) {
    auto out = dynamic_filter(g_ext, base, layout, opts);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_DynamicFilter);

}  // namespace

BENCHMARK_MAIN();
