// google-benchmark microbenchmarks of the library's hot kernels: SpMV
// (serial and distributed with halo update), the FSAI row solves, the
// pattern extension at several cache-line sizes, the partitioner, and the
// cache-model replay. These measure the *implementation's* wall-clock, as
// opposed to the table/figure harnesses which report modeled cluster time.
//
// With FSAIC_KERNELS_BENCH_OUT=<path> set, the binary instead runs the
// kernel-backend study over the paper's small suite and writes the
// fsaic.bench.kernels/v1 artifact (BENCH_kernels.json): per-matrix CSR vs
// SELL-C-sigma GFLOP/s + padding ratio + modeled x-miss counts, the
// fused-vs-separate CG sweep timing, and bitwise correctness verdicts.
// tools/bench_diff.py --mode kernels gates regressions on it in CI. The
// small suite is the right study population: its matrices are
// cache-resident, so the timing isolates the kernel's instruction stream;
// the large-suite entries stream from memory and all formats converge to
// the bandwidth ceiling on a single core.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include "cachesim/cache_model.hpp"
#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "graph/partition.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "solver/pcg.hpp"
#include "sparse/ops.hpp"
#include "sparse/sell.hpp"
#include "sparse/vector_ops.hpp"

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

void BM_SellSpmv(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a = poisson2d(n, n);
  const SellMatrix sell(a, 8, 64);
  std::vector<value_t> x(static_cast<std::size_t>(a.cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    sell.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SellSpmv)->Arg(64)->Arg(128)->Arg(256);

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

// ---- kernel-backend study (fsaic.bench.kernels/v1) ----------------------

/// Best-of-`reps` wall time of f() in seconds.
template <typename F>
double best_seconds(int reps, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

int run_kernels_bench(const std::string& out_path) {
  constexpr index_t kChunk = 8;
  constexpr index_t kSigma = 64;
  constexpr int kReps = 7;
  const CacheConfig cache{.line_bytes = 64, .size_bytes = 32 * 1024,
                          .associativity = 8};

  JsonValue matrices = JsonValue::array();
  int sell_faster = 0;
  int correctness_diffs = 0;
  double max_padding = 1.0;
  const auto& suite = small_suite();
  for (const auto& entry : suite) {
    const CsrMatrix a = entry.generate();
    const SellMatrix sell(a, kChunk, kSigma);

    Rng rng(20260807);
    std::vector<value_t> x(static_cast<std::size_t>(a.cols()));
    for (auto& v : x) v = rng.next_uniform(-1.0, 1.0);
    std::vector<value_t> y_csr(static_cast<std::size_t>(a.rows()));
    std::vector<value_t> y_sell(static_cast<std::size_t>(a.rows()));

    // Enough kernel launches per sample to get out of timer-resolution
    // territory on the smaller suite entries.
    const int inner = static_cast<int>(
        std::max<offset_t>(1, 20'000'000 / std::max<offset_t>(1, a.nnz())));
    const double csr_s = best_seconds(kReps, [&] {
                           for (int i = 0; i < inner; ++i) spmv(a, x, y_csr);
                         }) /
                         inner;
    const double sell_s = best_seconds(kReps, [&] {
                            for (int i = 0; i < inner; ++i) sell.spmv(x, y_sell);
                          }) /
                          inner;
    const bool bitwise_equal =
        std::memcmp(y_csr.data(), y_sell.data(),
                    y_csr.size() * sizeof(value_t)) == 0;
    if (!bitwise_equal) ++correctness_diffs;

    const double flops = 2.0 * static_cast<double>(a.nnz());
    const double speedup = sell_s > 0.0 ? csr_s / sell_s : 0.0;
    if (speedup >= 1.2) ++sell_faster;
    max_padding = std::max(max_padding, sell.padding_ratio());

    JsonValue m = JsonValue::object();
    m["name"] = entry.name;
    m["rows"] = a.rows();
    m["nnz"] = a.nnz();
    m["padding_ratio"] = sell.padding_ratio();
    m["csr_gflops"] = csr_s > 0.0 ? flops / csr_s * 1e-9 : 0.0;
    m["sell_gflops"] = sell_s > 0.0 ? flops / sell_s * 1e-9 : 0.0;
    m["sell_speedup"] = speedup;
    m["bitwise_equal"] = bitwise_equal;
    m["csr_x_misses"] = replay_spmv_x_accesses(a, cache).misses;
    m["sell_x_misses"] = replay_sell_spmv_x_accesses(sell, cache).misses;
    matrices.push_back(std::move(m));
    std::cout << entry.name << ": sell " << (speedup >= 1.2 ? "fast" : "slow")
              << " x" << speedup << ", padding " << sell.padding_ratio()
              << (bitwise_equal ? "" : "  BITWISE DIFF") << "\n";
  }

  // Fused vs separate CG vector sweeps (bitwise-identical by construction;
  // the artifact records the verdict anyway so the gate can enforce it).
  constexpr std::size_t kSweepN = 1'000'000;
  constexpr int kSweepInner = 10;
  Rng rng(7);
  std::vector<value_t> u(kSweepN), w(kSweepN);
  for (auto& v : u) v = rng.next_uniform(-1.0, 1.0);
  for (auto& v : w) v = rng.next_uniform(-1.0, 1.0);
  std::vector<value_t> p1(kSweepN, 0.1), s1(kSweepN, 0.2), r1(kSweepN, 0.3);
  const value_t beta = 0.375;
  const value_t malpha = -0.625;
  auto p2 = p1;
  auto s2 = s1;
  auto r2 = r1;
  const double separate_s = best_seconds(kReps, [&] {
                              for (int i = 0; i < kSweepInner; ++i) {
                                xpby(u, beta, p1);
                                xpby(w, beta, s1);
                                axpy(malpha, s1, r1);
                              }
                            }) /
                            kSweepInner;
  const double fused_s = best_seconds(kReps, [&] {
                           for (int i = 0; i < kSweepInner; ++i) {
                             fused_cg_sweep(u, w, beta, malpha, p2, s2, r2);
                           }
                         }) /
                         kSweepInner;
  const bool sweep_equal =
      std::memcmp(p1.data(), p2.data(), kSweepN * sizeof(value_t)) == 0 &&
      std::memcmp(s1.data(), s2.data(), kSweepN * sizeof(value_t)) == 0 &&
      std::memcmp(r1.data(), r2.data(), kSweepN * sizeof(value_t)) == 0;
  if (!sweep_equal) ++correctness_diffs;

  JsonValue doc = JsonValue::object();
  doc["schema"] = "fsaic.bench.kernels/v1";
  doc["bench"] = "micro_kernels";
  JsonValue config = JsonValue::object();
  config["sell_chunk"] = kChunk;
  config["sell_sigma"] = kSigma;
  config["reps"] = kReps;
  config["sweep_n"] = static_cast<std::int64_t>(kSweepN);
  doc["config"] = std::move(config);
  doc["matrices"] = std::move(matrices);
  JsonValue sweeps = JsonValue::object();
  sweeps["n"] = static_cast<std::int64_t>(kSweepN);
  sweeps["separate_seconds"] = separate_s;
  sweeps["fused_seconds"] = fused_s;
  sweeps["fused_speedup"] = fused_s > 0.0 ? separate_s / fused_s : 0.0;
  sweeps["bitwise_equal"] = sweep_equal;
  doc["sweeps"] = std::move(sweeps);
  JsonValue summary = JsonValue::object();
  summary["matrices"] = static_cast<std::int64_t>(suite.size());
  summary["sell_faster_count"] = sell_faster;
  summary["max_padding_ratio"] = max_padding;
  summary["correctness_diffs"] = correctness_diffs;
  doc["summary"] = std::move(summary);

  atomic_write_file(out_path, doc.dump() + "\n");
  std::cout << "kernel study: sell >=1.2x on " << sell_faster << "/"
            << suite.size() << " matrices, fused sweep x"
            << (fused_s > 0.0 ? separate_s / fused_s : 0.0) << ", "
            << correctness_diffs << " correctness diffs -> " << out_path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Artifact mode: the CI kernel-smoke job sets FSAIC_KERNELS_BENCH_OUT and
  // consumes BENCH_kernels.json; without it this is a normal
  // google-benchmark binary.
  if (const char* out = std::getenv("FSAIC_KERNELS_BENCH_OUT");
      out != nullptr && *out != '\0') {
    return run_kernels_bench(out);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
