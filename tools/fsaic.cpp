// fsaic — command-line front end of the library.
//
//   fsaic analyze  <matrix.mtx> [--ranks P]
//       Structure, partition-quality and conditioning report.
//   fsaic solve    <matrix.mtx> [options]
//   fsaic solve    --gen <spec> [options]
//       Preconditioned CG solve with the FSAI family. With --gen the
//       operator is generated rank-local from a workload spec (see
//       docs/workload-generation.md) instead of read from a file — no
//       global matrix is materialized for the matrix-free preconditioners
//       (jacobi/block-jacobi/block-ic0/none), so million-row weak-scaling
//       operators fit in per-rank memory.
//         --method fsai|fsaie|fsaie-comm|fsaie-full|jacobi|block-jacobi|
//                  block-ic0|schwarz|none  (default fsaie-comm)
//         --overlap K         Schwarz overlap level      (default 1)
//         --ranks P           simulated ranks            (default 8)
//         --threads T         threads/rank for the cost model (default 8);
//                             when given explicitly, also runs the solve on
//                             T real threads (bit-identical residuals). The
//                             FSAIC_THREADS env var sets the default.
//         --filter F          filter value               (default 0.01)
//         --static            static instead of dynamic filtering
//         --machine M         skylake|a64fx|zen2         (default skylake)
//         --comm C            flat|node-aware halo exchange (default flat;
//                             FSAIC_COMM sets the default). node-aware
//                             coalesces inter-node messages through node
//                             leaders and overlaps the exchange with the
//                             interior SpMV — residuals stay bit-identical
//         --ranks-per-node N  simulated ranks per node (the
//                             FSAIC_RANKS_PER_NODE env var sets the default).
//                             When neither is given under --comm node-aware,
//                             the cheapest of {1,2,4,8} per the machine's
//                             cost model is picked automatically
//         --tol T             relative tolerance         (default 1e-8)
//         --format F          csr|sell|auto rank-local kernel backend
//                             (default csr; FSAIC_FORMAT sets the default).
//                             sell is the SELL-C-sigma SIMD layout — residual
//                             histories stay bit-identical in double. auto
//                             picks the least-padded SELL chunk per matrix,
//                             falling back to csr past 1.25x padding
//         --precision P       double|single factor storage (default double).
//                             single stores G and G^T in float32 (double
//                             accumulation, CG vectors stay double); the
//                             system matrix always stays double
//         --separate-sweeps   run the historic separate AXPY/XPBY sweeps
//                             instead of the fused single-pass kernels
//                             (bit-identical; for A/B benchmarking)
//         --pipelined         Chronopoulos-Gear CG (1 allreduce/iter)
//         --gmres             restarted GMRES(50) instead of CG
//         --rcm               apply RCM reordering before partitioning
//         --rhs PATH          load the right-hand side from a MatrixMarket
//                             vector file instead of synthesizing one
//         --save-factor PATH  serialize the computed G factor (records the
//                             system fingerprint for load-time validation)
//         --load-factor PATH  reuse a previously saved factor; fails if it
//                             was built for a different matrix
//         --trace PATH        Chrome trace_event JSON of setup + solve phases
//         --report PATH       JSONL run report (one run line + per-iteration)
//   fsaic bench    [small|large] [--machine M] [--threads T] [--filter F]
//                  [--report PATH]
//       Run a suite through the experiment harness: FSAI baseline vs
//       FSAIE-Comm per matrix, plus a metrics summary.
//   fsaic serve    --requests in.jsonl --report out.jsonl [options]
//       Long-lived solve service: bounded request queue, fingerprint-sharded
//       worker pool with idle stealing, two-tier (RAM + disk) factor cache,
//       multi-RHS batching, priority lanes with earliest-deadline-first
//       ordering, and predictive admission control (docs/service.md).
//         --requests PATH     JSONL request file ("-" = stdin)
//         --report PATH       JSONL response file ("-" = stdout, default)
//         --workers N         worker threads              (default 1)
//         --queue-capacity Q  admission bound             (default 64)
//         --cache-capacity K  resident factors            (default 8)
//         --store DIR         disk tier for the factor cache: factors are
//                             persisted fingerprint-addressed under DIR and
//                             reloaded on cache miss, so a restarted service
//                             warm-starts from the store
//         --store-max-bytes B cap the store's total on-disk footprint; when
//                             a persist pushes past B, the least-recently-
//                             accessed factor files are evicted (0 =
//                             unlimited, the default)
//         --solver-threads T  executor threads per worker (default 1)
//         --no-batch          disable multi-RHS coalescing
//         --metrics PATH      JSON metrics dump (queue/cache/latency)
//         --prom PATH         Prometheus text-format metrics exposition
//         --metrics-interval S  refresh --metrics/--prom every S seconds
//                             (atomic file replace; 0 = end of run only)
//         --log PATH          structured JSONL log ("-" = stderr); the
//                             FSAIC_LOG env var is the flagless equivalent
//         --log-level L       debug|info|warn|error       (default info)
//         --trace PATH        Chrome trace_event JSON of the request
//                             lifecycle (queue/setup/solve slices per rid)
//         --watch DIR         serve request files dropped into DIR
//         --poll-ms MS        watch poll interval         (default 200)
//         --once              process the watch directory once and exit
//       Both modes append a {"kind":"serve"} summary record to the file
//       named by FSAIC_REPORT when that env var is set.
//   fsaic suite    [small|large]
//       List the built-in synthetic suites.
//   fsaic generate <entry-name> <out.mtx>
//       Write one suite matrix to a MatrixMarket file.
//   fsaic gen      <spec> [--ranks P] [--out file.mtx]
//       Resolve a workload spec ("stencil3d:n=100", "rgg2d:rows_per_rank=
//       65536,radius=auto", ...), generate it rank-local over P simulated
//       ranks and print operator + distribution stats (rows, nnz, per-rank
//       peak, halo volume, content fingerprint). --out additionally writes
//       the assembled operator to a MatrixMarket file (this one path does
//       materialize the global matrix; see docs/workload-generation.md).
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/factor_io.hpp"
#include "core/fsai_driver.hpp"
#include "exec/exec_policy.hpp"
#include "graph/rcm.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "matgen/suite.hpp"
#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "perf/cost_model.hpp"
#include "perf/setup_cost.hpp"
#include "service/solve_service.hpp"
#include "solver/ic0.hpp"
#include "solver/gmres.hpp"
#include "solver/pipelined_cg.hpp"
#include "solver/schwarz.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/ops.hpp"
#include "sparse/stats.hpp"
#include "wgen/wgen.hpp"

namespace {

using namespace fsaic;

int usage() {
  std::cerr << "usage: fsaic <analyze|solve|bench|serve|suite|generate|gen> ...\n"
            << "       (see the header of tools/fsaic.cpp for options)\n";
  return 1;
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  [[nodiscard]] bool has(const std::string& key) const {
    for (const auto& [k, v] : options) {
      if (k == key) return true;
    }
    return false;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    for (const auto& [k, v] : options) {
      if (k == key) return v;
    }
    return fallback;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      // Flags with values: everything except the boolean switches.
      const bool boolean = a == "--static" || a == "--pipelined" ||
                           a == "--rcm" || a == "--gmres" ||
                           a == "--no-batch" || a == "--once" ||
                           a == "--separate-sweeps";
      std::string value;
      if (!boolean && i + 1 < argc) {
        value = argv[++i];
      }
      args.options.emplace_back(a.substr(2), value);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) return usage();
  const CsrMatrix a = read_matrix_market_file(args.positional[0]);
  const auto s = compute_matrix_stats(a);
  std::cout << args.positional[0] << "\n"
            << "  rows " << s.rows << ", nnz " << s.nnz << " (" << s.avg_row_nnz
            << "/row, min " << s.min_row_nnz << ", max " << s.max_row_nnz << ")\n"
            << "  symmetric: " << (s.symmetric ? "yes" : "NO") << "\n"
            << "  bandwidth " << s.bandwidth << ", dominant rows "
            << pct2(100.0 * s.diagonally_dominant_fraction) << "%\n";
  if (s.symmetric) {
    std::cout << "  estimated condition number "
              << strformat("%.3g", estimate_condition_number(a)) << "\n";
  }
  const Graph g = Graph::from_pattern(a.pattern());
  std::cout << "  graph: " << g.num_edges() << " edges, "
            << g.component_count() << " component(s)\n";
  const auto nranks = static_cast<rank_t>(std::stoi(args.get("ranks", "8")));
  const PartitionedSystem sys = partition_system(a, nranks);
  const auto dist = DistCsr::distribute(sys.matrix, sys.layout);
  std::cout << "  partition into " << nranks << " ranks: edge cut "
            << sys.edge_cut << ", imbalance "
            << strformat("%.3f", sys.partition_imbalance)
            << ", halo/update " << dist.halo_update_bytes() << " B in "
            << dist.halo_update_messages() << " messages\n";
  const Graph gperm = Graph::from_pattern(sys.matrix.pattern());
  const auto rcm = rcm_permutation(gperm);
  std::cout << "  RCM would reduce bandwidth " << pattern_bandwidth(a.pattern())
            << " -> "
            << pattern_bandwidth(
                   permute_symmetric(sys.matrix, rcm).pattern())
            << "\n";
  return 0;
}

int cmd_solve(const Args& args) {
  const bool gen_mode = args.has("gen");
  if (!gen_mode && args.positional.empty()) return usage();
  FSAIC_REQUIRE(!gen_mode || args.positional.empty(),
                "--gen replaces the positional matrix file");
  CsrMatrix a;  // stays empty with --gen: the operator is generated rank-local
  if (!gen_mode) {
    a = read_matrix_market_file(args.positional[0]);
    FSAIC_REQUIRE(a.rows() == a.cols(), "matrix must be square");
    FSAIC_REQUIRE(a.is_symmetric(1e-10 * a.max_abs()),
                  "matrix must be symmetric (CG requires SPD)");
  }
  const std::string operator_name =
      gen_mode ? args.get("gen", "") : args.positional[0];

  const Machine machine = machine_by_name(args.get("machine", "skylake"));
  const auto nranks = static_cast<rank_t>(std::stoi(args.get("ranks", "8")));
  const int threads = std::stoi(args.get("threads", "8"));
  // `--threads` has always parameterized the *cost model* (default 8); it
  // switches the actual execution engine only when passed explicitly, so a
  // bare `fsaic solve m.mtx` stays sequential. FSAIC_THREADS sets the
  // process default either way.
  ExecPolicy exec_policy = ExecPolicy::from_env();
  if (args.has("threads")) exec_policy.nthreads = threads;
  const auto exec = make_executor(exec_policy);
  const value_t filter = std::stod(args.get("filter", "0.01"));
  const value_t tol = std::stod(args.get("tol", "1e-8"));
  const std::string method = args.get("method", "fsaie-comm");
  // Communication scheme: environment first, explicit flags win.
  CommConfig comm = CommConfig::from_env();
  if (args.has("comm")) {
    comm.mode = comm_mode_from_string(args.get("comm", "flat"));
  }
  if (args.has("ranks-per-node")) {
    comm.ranks_per_node = std::max(1, std::stoi(args.get("ranks-per-node", "1")));
  }

  // Observability attachments: a trace recorder shared by the setup pipeline
  // and the solver, and a collecting sink feeding the JSONL report. Both are
  // null (zero-overhead) unless the corresponding flag was given. The output
  // files are opened before the solve so a bad path fails fast.
  TraceRecorder trace_rec;
  TraceRecorder* const trace = args.has("trace") ? &trace_rec : nullptr;
  std::ofstream trace_out;
  if (trace != nullptr) {
    trace_out.open(args.get("trace", ""));
    FSAIC_REQUIRE(trace_out.good(),
                  "cannot open trace output file: " + args.get("trace", ""));
  }
  CollectingSink sink;
  TelemetrySink* const sinkp = args.has("report") ? &sink : nullptr;
  std::unique_ptr<RunReportWriter> report;
  if (args.has("report")) {
    report = std::make_unique<RunReportWriter>(args.get("report", ""));
  }

  if (args.has("rcm")) {
    FSAIC_REQUIRE(!gen_mode,
                  "--rcm needs a matrix file: generated operators are "
                  "assembled rank-local in their natural row order");
    const Graph g = Graph::from_pattern(a.pattern());
    a = permute_symmetric(a, rcm_permutation(g));
    std::cout << "applied RCM: bandwidth now " << pattern_bandwidth(a.pattern())
              << "\n";
  }

  // Kernel backend: environment first (FSAIC_FORMAT), explicit flags win.
  // Mixed precision is factor-only — the system matrix A always stays at
  // double, so the CG recurrence itself is untouched.
  KernelConfig kernel = KernelConfig::from_env();
  if (args.has("format")) {
    const std::string fmt = args.get("format", "csr");
    if (fmt == "auto") {
      kernel.autotune = true;
    } else {
      kernel.autotune = false;
      kernel.format = operator_format_from_string(fmt);
    }
  }
  KernelConfig factor_kernel = kernel;
  if (args.has("precision")) {
    factor_kernel.precision =
        factor_precision_from_string(args.get("precision", "double"));
  }

  PartitionedSystem sys;
  wgen::WgenStats gen_stats;
  DistCsr a_dist = [&] {
    if (gen_mode) {
      // Rank-local generation: each simulated rank assembles only its own
      // row block, so no global matrix exists and peak per-rank memory is
      // O(rows/rank). The permutation is identity — specs enumerate rows in
      // an order that is already contiguous per rank.
      const wgen::ResolvedWorkload w = wgen::resolve_workload(
          wgen::parse_workload_spec(args.get("gen", "")), nranks);
      DistCsr d = wgen::generate_dist(w, nranks, comm, &gen_stats, exec.get());
      sys.layout = d.row_layout();
      sys.perm.resize(static_cast<std::size_t>(sys.layout.global_size()));
      std::iota(sys.perm.begin(), sys.perm.end(), index_t{0});
      return d;
    }
    sys = partition_system(a, nranks);
    return DistCsr::distribute(sys.matrix, sys.layout, comm);
  }();
  a_dist.use_kernel(kernel);
  if (gen_mode) {
    std::cout << operator_name << ": " << gen_stats.rows << " rows, "
              << gen_stats.nnz << " nnz over " << nranks
              << " ranks, generated rank-local (per-rank peak "
              << gen_stats.max_rank_nnz << " nnz, balance "
              << strformat("%.3f", gen_stats.balance()) << ")\n";
  } else {
    std::cout << operator_name << ": " << sys.matrix.rows() << " rows, "
              << sys.matrix.nnz() << " nnz over " << nranks
              << " ranks (edge cut " << sys.edge_cut << ")\n";
  }

  // Methods that build from the assembled matrix (schwarz + the FSAI
  // family) need a global copy; with --gen it is materialized on demand so
  // the matrix-free preconditioners (jacobi / block-jacobi / block-ic0 /
  // none) keep the whole run free of any global matrix.
  const auto ensure_global = [&]() -> const CsrMatrix& {
    if (gen_mode && sys.matrix.rows() == 0) {
      std::cout << "note: method " << method
                << " assembles the generated operator globally for setup\n";
      sys.matrix = a_dist.to_global();
    }
    return sys.matrix;
  };

  // Node-aware runs without an explicit node geometry pick one: score the
  // candidate ranks-per-node values against the machine's cost model (one
  // modeled CG iteration = SpMV halo exchange + 3 allreduces) and keep the
  // cheapest. Explicit --ranks-per-node or FSAIC_RANKS_PER_NODE wins.
  const char* rpn_env = std::getenv("FSAIC_RANKS_PER_NODE");
  if (comm.mode == CommMode::NodeAware && !args.has("ranks-per-node") &&
      (rpn_env == nullptr || *rpn_env == '\0')) {
    int best_rpn = 1;
    double best_score = 0.0;
    for (const int rpn : {1, 2, 4, 8}) {
      if (rpn > nranks) continue;
      CommConfig trial = comm;
      trial.ranks_per_node = rpn;
      const CostModel trial_cost(machine,
                                 {.threads_per_rank = threads, .comm = trial});
      const double score = trial_cost.spmv_cost(a_dist).total() +
                           3.0 * trial_cost.allreduce_cost(nranks);
      if (best_score == 0.0 || score < best_score) {
        best_score = score;
        best_rpn = rpn;
      }
    }
    comm.ranks_per_node = best_rpn;
    a_dist.use_comm(comm);
    std::cout << "auto ranks/node: picked " << best_rpn << " on "
              << machine.name << " (modeled iteration " << sci2(best_score)
              << " s)\n";
  }

  // Right-hand side: loaded from a MatrixMarket vector file when --rhs is
  // given, otherwise synthesized per the paper's setup.
  std::vector<value_t> bg;
  const index_t global_rows = sys.layout.global_size();
  if (args.has("rhs")) {
    bg = read_matrix_market_vector_file(args.get("rhs", ""));
    FSAIC_REQUIRE(bg.size() == static_cast<std::size_t>(global_rows),
                  "right-hand side length " + std::to_string(bg.size()) +
                      " does not match matrix rows " +
                      std::to_string(global_rows));
  } else {
    Rng rng(2022);
    bg.resize(static_cast<std::size_t>(global_rows));
    for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  }
  std::vector<value_t> b_perm(bg.size());
  for (std::size_t i = 0; i < bg.size(); ++i) {
    b_perm[static_cast<std::size_t>(sys.perm[i])] = bg[i];
  }
  const DistVector b(sys.layout, b_perm);

  std::unique_ptr<Preconditioner> precond;
  const CostModel cost(machine, {.threads_per_rank = threads, .comm = comm});
  double apply_cost = 0.0;
  // Setup accounting of the factorized build, attached to the report's run
  // record (stays null for the non-FSAI methods and loaded factors).
  JsonValue setup_json;
  if (method == "none") {
    precond = std::make_unique<IdentityPreconditioner>();
  } else if (method == "jacobi") {
    precond = std::make_unique<JacobiPreconditioner>(a_dist);
  } else if (method == "block-jacobi") {
    precond = std::make_unique<BlockJacobiPreconditioner>(a_dist, 32);
  } else if (method == "block-ic0") {
    precond = std::make_unique<BlockIc0Preconditioner>(a_dist);
  } else if (method == "schwarz") {
    const int overlap = std::stoi(args.get("overlap", "1"));
    auto ras = std::make_unique<SchwarzPreconditioner>(ensure_global(),
                                                       sys.layout, overlap);
    std::cout << "schwarz overlap " << overlap << ": "
              << ras->apply_halo_bytes() << " halo B/application\n";
    precond = std::move(ras);
  } else {
    FsaiOptions opts;
    opts.cache_line_bytes = machine.l1.line_bytes;
    opts.exec = exec.get();
    opts.trace = trace;
    opts.filter = filter;
    opts.filter_strategy =
        args.has("static") ? FilterStrategy::Static : FilterStrategy::Dynamic;
    if (method == "fsai") {
      opts.extension = ExtensionMode::None;
      opts.filter = 0.0;
    } else if (method == "fsaie") {
      opts.extension = ExtensionMode::LocalOnly;
    } else if (method == "fsaie-comm") {
      opts.extension = ExtensionMode::CommAware;
    } else if (method == "fsaie-full") {
      opts.extension = ExtensionMode::FullHalo;
    } else {
      std::cerr << "unknown method: " << method << "\n";
      return 1;
    }
    if (args.has("load-factor")) {
      const SavedFactor saved = load_factor(args.get("load-factor", ""));
      FSAIC_REQUIRE(saved.layout == sys.layout,
                    "saved factor was built for a different layout");
      require_factor_matches(saved, ensure_global());
      const DistCsr g_dist = DistCsr::distribute(saved.g, saved.layout, comm);
      const DistCsr gt_dist =
          DistCsr::distribute(transpose(saved.g), saved.layout, comm);
      apply_cost = cost.spmv_cost(g_dist).total() + cost.spmv_cost(gt_dist).total();
      precond = std::make_unique<FactorizedPreconditioner>(g_dist, gt_dist,
                                                           method + "(loaded)");
    } else {
      FsaiBuildResult build =
          build_fsai_preconditioner(ensure_global(), sys.layout, opts);
      build.g_dist.use_comm(comm);
      build.gt_dist.use_comm(comm);
      std::cout << method << ": +" << pct2(build.nnz_increase_pct)
                << "% pattern entries, imbalance index "
                << strformat("%.3f", build.imbalance_avg()) << ", setup "
                << sci2(estimate_build_setup(build, sys.layout, machine, threads)
                            .time)
                << " s (modeled)\n";
      if (args.has("save-factor")) {
        save_factor(args.get("save-factor", ""), build.g, sys.layout,
                    fingerprint_of(sys.matrix));
        std::cout << "factor saved to " << args.get("save-factor", "") << "\n";
      }
      setup_json = JsonValue::object();
      setup_json["g_nnz"] = build.g.nnz();
      setup_json["rows_solved"] =
          static_cast<std::int64_t>(build.provisional_factor_stats.rows_solved) +
          static_cast<std::int64_t>(build.factor_stats.rows_solved);
      setup_json["gram_entries_gathered"] =
          build.provisional_factor_stats.gram_entries_gathered +
          build.factor_stats.gram_entries_gathered;
      setup_json["provisional_fallback_rows"] =
          build.provisional_factor_stats.fallback_rows;
      setup_json["provisional_degenerate_rows"] =
          build.provisional_factor_stats.degenerate_rows;
      setup_json["fallback_rows"] = build.factor_stats.fallback_rows;
      setup_json["degenerate_rows"] = build.factor_stats.degenerate_rows;
      apply_cost = cost.spmv_cost(build.g_dist).total() +
                   cost.spmv_cost(build.gt_dist).total();
      precond = std::make_unique<FactorizedPreconditioner>(
          build.g_dist, build.gt_dist, method);
    }
  }

  precond->set_trace(trace);
  // Swap the factors onto the requested kernel backend (the system matrix
  // was switched right after distribute; only the factorized family carries
  // its own DistCsr operators).
  double factor_padding = 1.0;
  if (auto* fp = dynamic_cast<FactorizedPreconditioner*>(precond.get())) {
    fp->use_kernel(factor_kernel);
    factor_padding = fp->padding_ratio();
  }
  // Report the *resolved* kernel: under --format auto the distribute-time
  // autotuner may have picked a different chunk (or fallen back to csr).
  const KernelConfig& a_kernel = a_dist.kernel_config();
  if (kernel.autotune) {
    std::cout << "kernel autotune: picked " << to_string(a_kernel.format);
    if (a_kernel.format == OperatorFormat::Sell) {
      std::cout << " C=" << a_kernel.sell_chunk;
    }
    std::cout << " (padding ratio " << strformat("%.3f", a_dist.padding_ratio())
              << ")\n";
  }
  if (a_kernel.format == OperatorFormat::Sell) {
    std::cout << "kernel backend sell (C=" << a_kernel.sell_chunk
              << ", sigma=" << a_kernel.sell_sigma << "): padding ratio A "
              << strformat("%.3f", a_dist.padding_ratio()) << ", factors "
              << strformat("%.3f", factor_padding) << "\n";
  }
  if (factor_kernel.precision == FactorPrecision::Single) {
    std::cout << "mixed precision: factors stored float32, CG vectors and A "
                 "stay double\n";
  }
  const bool fused = !args.has("separate-sweeps");
  DistVector x(sys.layout);
  const SolveOptions solve_opts{.rel_tol = tol, .max_iterations = 100000,
                                .sink = sinkp, .trace = trace,
                                .exec = exec.get(), .fused_sweeps = fused};
  const SolveResult r =
      args.has("gmres")
          ? gmres_solve(a_dist, b, x, *precond,
                        {.rel_tol = tol, .max_iterations = 100000,
                         .sink = sinkp, .trace = trace, .exec = exec.get()})
          : (args.has("pipelined")
                 ? pcg_solve_pipelined(a_dist, b, x, *precond, solve_opts)
                 : pcg_solve(a_dist, b, x, *precond, solve_opts));

  const double iter_cost = cost.spmv_cost(a_dist).total() +
                           cost.blas1_cost(sys.layout, 3) +
                           (args.has("pipelined") ? 1.0 : 3.0) *
                               cost.allreduce_cost(nranks) +
                           apply_cost;
  std::cout << (r.converged ? "converged" : "NOT converged") << " in "
            << r.iterations << " iterations (relative residual "
            << strformat("%.2e", r.final_residual / r.initial_residual)
            << ")\n"
            << "modeled time on " << machine.name << ": "
            << sci2(r.iterations * iter_cost) << " s\n"
            << "comm: " << r.comm.halo_messages << " halo messages ("
            << r.comm.halo_bytes << " B) over " << r.comm.neighbor_pair_count()
            << " neighbor pairs; " << r.comm.allreduce_count << " allreduces ("
            << r.comm.allreduce_bytes << " B)\n";
  if (comm.ranks_per_node > 1 || comm.mode == CommMode::NodeAware) {
    std::cout << "comm scheme " << to_string(comm.mode) << " (ranks/node "
              << comm.ranks_per_node << "): intra "
              << r.comm.halo_intra_messages << " msgs ("
              << r.comm.halo_intra_bytes << " B), inter "
              << r.comm.halo_inter_messages << " msgs ("
              << r.comm.halo_inter_bytes << " B); "
              << r.comm.async_allreduce_count << " async allreduces ("
              << r.comm.async_allreduce_bytes << " B)\n";
  }

  if (exec->threaded()) {
    const ExecStats es = exec->stats();
    double halo_wait_us = 0.0;
    for (double w : a_dist.halo_wait_us()) halo_wait_us += w;
    std::cout << "exec: " << es.nthreads << " threads, " << es.supersteps
              << " supersteps, " << es.allreduces << " tree allreduces; max "
              << "barrier wait " << sci2(es.max_barrier_wait_us() * 1e-6)
              << " s, total halo mailbox wait " << sci2(halo_wait_us * 1e-6)
              << " s\n";
  }

  if (trace != nullptr) {
    trace_rec.write_json(trace_out);
    std::cout << "trace: " << trace_rec.event_count() << " events -> "
              << args.get("trace", "")
              << " (load in chrome://tracing or Perfetto)\n";
  }
  if (report != nullptr) {
    JsonValue rec;
    rec["kind"] = "run";
    rec["matrix"] = operator_name;
    rec["method"] = method;
    rec["solver"] = args.has("gmres")
                        ? "gmres"
                        : (args.has("pipelined") ? "pipelined-cg" : "pcg");
    rec["ranks"] = nranks;
    rec["comm_mode"] = to_string(comm.mode);
    rec["ranks_per_node"] = comm.ranks_per_node;
    rec["comm_intra_bytes"] = r.comm.halo_intra_bytes;
    rec["comm_inter_bytes"] = r.comm.halo_inter_bytes;
    rec["format"] = to_string(a_kernel.format);
    rec["precision"] = to_string(factor_kernel.precision);
    rec["padding_ratio"] = a_dist.padding_ratio();
    rec["factor_padding_ratio"] = factor_padding;
    rec["fused_sweeps"] = fused;
    rec["exec_threads"] = exec->nthreads();
    rec["exec_supersteps"] = static_cast<std::int64_t>(exec->stats().supersteps);
    rec["converged"] = r.converged;
    rec["iterations"] = r.iterations;
    rec["initial_residual"] = static_cast<double>(r.initial_residual);
    rec["final_residual"] = static_cast<double>(r.final_residual);
    rec["comm"] = comm_stats_to_json(r.comm);
    if (!setup_json.is_null()) rec["setup"] = setup_json;
    report->write(rec);
    for (const auto& s : sink.samples()) {
      JsonValue line;
      line["kind"] = "iteration";
      line["iteration"] = s.iteration;
      line["residual"] = s.residual;
      line["relative_residual"] = s.relative_residual;
      line["halo_bytes_delta"] = s.halo_bytes_delta;
      line["halo_messages_delta"] = s.halo_messages_delta;
      line["allreduce_delta"] = s.allreduce_delta;
      line["elapsed_us"] = s.elapsed_us;
      report->write(line);
    }
    std::cout << "report: " << report->records_written() << " records -> "
              << args.get("report", "") << "\n";
  }
  return r.converged ? 0 : 2;
}

// `fsaic bench`: run one suite through the experiment harness and print the
// FSAI-vs-FSAIE-Comm comparison with measured wall times, feeding the same
// metrics registry and JSONL report machinery as the bench binaries.
int cmd_bench(const Args& args) {
  const std::string which =
      args.positional.empty() ? "small" : args.positional[0];
  if (which != "small" && which != "large") return usage();
  const bool large = which == "large";

  ExperimentConfig cfg;
  cfg.machine = machine_by_name(args.get("machine", large ? "zen2" : "skylake"));
  cfg.threads_per_rank = std::stoi(args.get("threads", "8"));
  if (large) {
    cfg.nnz_per_rank = 8000;
    cfg.max_ranks = 64;
  }
  const value_t filter = std::stod(args.get("filter", "0.01"));

  ExperimentRunner runner(cfg);
  MetricsRegistry metrics;
  runner.set_metrics(&metrics);
  std::unique_ptr<RunReportWriter> report;
  if (args.has("report")) {
    report = std::make_unique<RunReportWriter>(args.get("report", ""));
    runner.set_report_writer(report.get());
  }

  const auto suite = large ? large_suite() : small_suite();
  TextTable table({"Matrix", "Ranks", "FSAI.it", "Comm.it", "Comm.%NNZ",
                   "time.dec%", "setup.s", "solve.s"});
  for (const auto& entry : suite) {
    const auto& base = runner.baseline(entry);
    const auto& comm = runner.run(
        entry, {ExtensionMode::CommAware, FilterStrategy::Dynamic, filter});
    table.add_row({entry.name, std::to_string(base.nranks),
                   std::to_string(base.iterations),
                   std::to_string(comm.iterations),
                   pct2(comm.nnz_increase_pct),
                   pct2(improvement_over(base, comm).time_pct),
                   sci2(comm.setup_seconds), sci2(comm.solve_seconds)});
  }
  table.print(std::cout);

  const auto snap = metrics.snapshot();
  std::cout << "\nmetrics (global counters):\n";
  for (const auto& [key, value] : snap.counters) {
    if (key.find(".rank") != std::string::npos) continue;
    std::cout << "  " << key << " = " << value << "\n";
  }
  if (report != nullptr) {
    std::cout << "report: " << report->records_written() << " records -> "
              << args.get("report", "") << "\n";
  }
  return 0;
}

// `fsaic serve`: drive the in-process solve service from a JSONL request
// file (or a watched directory of them). See docs/service.md for the
// protocol schema and backpressure semantics.
int cmd_serve(const Args& args) {
  ServiceOptions opts;
  opts.workers = std::stoi(args.get("workers", "1"));
  opts.queue_capacity =
      static_cast<std::size_t>(std::stoul(args.get("queue-capacity", "64")));
  opts.cache_capacity =
      static_cast<std::size_t>(std::stoul(args.get("cache-capacity", "8")));
  opts.solver_threads = std::stoi(args.get("solver-threads", "1"));
  opts.batching = !args.has("no-batch");
  // Disk tier: factors persist to --store and survive process restarts (a
  // warm restart reloads them on first miss instead of rebuilding).
  opts.store_dir = args.get("store", "");
  opts.store_max_bytes =
      static_cast<std::size_t>(std::stoull(args.get("store-max-bytes", "0")));

  MetricsRegistry metrics;
  opts.metrics = &metrics;

  // Structured logging: --log/--log-level win; FSAIC_LOG / FSAIC_LOG_LEVEL
  // are the flagless equivalent (useful under CI wrappers).
  std::unique_ptr<Logger> log;
  if (args.has("log")) {
    log = std::make_unique<Logger>(
        args.get("log", ""),
        log_level_from_string(args.get("log-level", "info")));
  } else {
    log = Logger::from_env();
  }
  opts.log = log.get();

  TraceRecorder trace_rec;
  if (args.has("trace")) opts.trace = &trace_rec;

  const std::string metrics_path = args.get("metrics", "");
  const std::string prom_path = args.get("prom", "");
  const auto write_snapshots = [&] {
    if (args.has("metrics")) {
      atomic_write_file(metrics_path, metrics.to_json().dump() + "\n");
    }
    if (args.has("prom")) {
      atomic_write_file(prom_path, render_prometheus(metrics));
    }
  };

  // Periodic exposition: a background thread atomically replaces the
  // --metrics / --prom files every --metrics-interval seconds, so a scraper
  // tailing the service always reads a complete, current snapshot.
  const double interval_s = std::stod(args.get("metrics-interval", "0"));
  std::mutex snap_mutex;
  std::condition_variable snap_cv;
  bool snap_stop = false;
  std::thread snapshot_thread;
  if (interval_s > 0.0 && (args.has("metrics") || args.has("prom"))) {
    snapshot_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(snap_mutex);
      while (!snap_cv.wait_for(lock,
                               std::chrono::duration<double>(interval_s),
                               [&] { return snap_stop; })) {
        write_snapshots();
      }
    });
  }

  // End-of-run reporting shared by --requests and --watch: console summary,
  // final metrics/trace dumps, and the FSAIC_REPORT serve record.
  const auto finish = [&](const ServiceStats& stats) {
    if (snapshot_thread.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(snap_mutex);
        snap_stop = true;
      }
      snap_cv.notify_all();
      snapshot_thread.join();
    }
    std::cerr << "serve: " << stats.submitted + stats.rejected_parse
              << " requests, " << stats.completed << " completed, "
              << stats.errors << " errors, "
              << stats.rejected_queue_full + stats.rejected_deadline +
                     stats.rejected_predicted + stats.rejected_parse
              << " rejected (" << stats.rejected_deadline << " deadline, "
              << stats.rejected_predicted << " predicted, "
              << stats.rejected_parse << " parse); " << stats.batches
              << " batches (max size " << stats.max_batch_size << ", "
              << stats.operator_reuses << " reused operators); cache "
              << stats.cache.hits << " hits / " << stats.cache.disk_hits
              << " disk / " << stats.cache.misses << " misses / "
              << stats.cache.evictions << " evictions / " << stats.cache.spills
              << " spills / " << stats.cache.store_evictions
              << " store evictions; " << stats.warm_starts
              << " warm starts\n";
    write_snapshots();
    if (args.has("metrics")) std::cout << "metrics -> " << metrics_path << "\n";
    if (args.has("prom")) std::cout << "prometheus -> " << prom_path << "\n";
    if (args.has("trace")) {
      trace_rec.write_file(args.get("trace", ""));
      std::cout << "trace: " << trace_rec.event_count() << " events -> "
                << args.get("trace", "") << "\n";
    }
    if (const char* rp = std::getenv("FSAIC_REPORT");
        rp != nullptr && *rp != '\0') {
      RunReportWriter report{std::string(rp)};
      report.write(serve_stats_to_json(stats));
      std::cerr << "report: serve summary -> " << rp << "\n";
    }
  };

  if (args.has("watch")) {
    const std::string dir = args.get("watch", "");
    const int poll_ms = std::stoi(args.get("poll-ms", "200"));
    std::cout << "watching " << dir << " for *.jsonl request files ("
              << opts.workers << " workers, cache capacity "
              << opts.cache_capacity << ")\n";
    int total = 0;
    ServiceStats stats;
    do {
      const int n = process_watch_directory(opts, dir, &stats);
      total += n;
      if (n > 0) std::cout << "served " << n << " request file(s)\n";
      if (!args.has("once")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      }
    } while (!args.has("once"));
    std::cout << "done: " << total << " request file(s) served\n";
    finish(stats);
    return 0;
  }

  if (!args.has("requests")) return usage();
  const std::string in_path = args.get("requests", "");
  const std::string out_path = args.get("report", "-");
  std::ifstream in_file;
  if (in_path != "-") {
    in_file.open(in_path);
    FSAIC_REQUIRE(in_file.good(), "cannot open request file: " + in_path);
  }
  std::ofstream out_file;
  if (out_path != "-") {
    out_file.open(out_path);
    FSAIC_REQUIRE(out_file.good(), "cannot open response file: " + out_path);
  }
  std::istream& in = in_path == "-" ? std::cin : in_file;
  std::ostream& out = out_path == "-" ? std::cout : out_file;

  const ServiceStats stats = serve_requests(opts, in, out);
  finish(stats);
  return 0;
}

int cmd_suite(const Args& args) {
  const std::string which =
      args.positional.empty() ? "small" : args.positional[0];
  TextTable table({"name", "mirrors", "type", "paper.FSAI.it", "paper.Comm.it"});
  const auto print = [&](const std::vector<SuiteEntry>& suite) {
    for (const auto& e : suite) {
      table.add_row({e.name, e.paper_name, e.type,
                     std::to_string(e.paper_fsai_iters),
                     std::to_string(e.paper_fsaie_comm_iters)});
    }
  };
  if (which == "small" || which == "all") print(small_suite());
  if (which == "large" || which == "all") print(large_suite());
  table.print(std::cout);
  return 0;
}

int cmd_generate(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto& entry = suite_entry(args.positional[0]);
  const CsrMatrix a = entry.generate();
  write_matrix_market_file(args.positional[1], a);
  std::cout << "wrote " << args.positional[1] << ": " << a.rows() << " rows, "
            << a.nnz() << " nnz (" << entry.type << ")\n";
  return 0;
}

// `fsaic gen`: resolve + generate a workload spec rank-local and report the
// operator / distribution / memory-footprint stats a weak-scaling study
// needs. No global matrix is built unless --out asks for a MatrixMarket
// export.
int cmd_gen(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto nranks = static_cast<rank_t>(std::stoi(args.get("ranks", "8")));
  const wgen::WorkloadSpec spec =
      wgen::parse_workload_spec(args.positional[0]);
  const wgen::ResolvedWorkload w = wgen::resolve_workload(spec, nranks);
  CommConfig comm = CommConfig::from_env();
  if (args.has("comm")) {
    comm.mode = comm_mode_from_string(args.get("comm", "flat"));
  }
  if (args.has("ranks-per-node")) {
    comm.ranks_per_node =
        std::max(1, std::stoi(args.get("ranks-per-node", "1")));
  }
  const auto exec = make_executor(ExecPolicy::from_env());
  wgen::WgenStats stats;
  const DistCsr dist = wgen::generate_dist(w, nranks, comm, &stats, exec.get());
  const MatrixFingerprint fp = fingerprint_rank_local(dist);
  std::cout << spec.to_string() << ": " << stats.rows << " rows, " << stats.nnz
            << " nnz over " << nranks << " ranks\n"
            << "  per-rank peak: " << stats.max_rank_rows << " rows, "
            << stats.max_rank_nnz << " nnz (balance "
            << strformat("%.3f", stats.balance()) << ")\n"
            << "  halo/update " << dist.halo_update_bytes() << " B in "
            << dist.halo_update_messages() << " messages\n"
            << "  fingerprint " << hash_hex(fp.content_hash) << ", generated in "
            << sci2(stats.generate_seconds) << " s (" << stats.split_nodes
            << " split nodes, " << stats.cell_streams << " cell streams)\n";
  if (args.has("out")) {
    const std::string out = args.get("out", "");
    write_matrix_market_file(out, wgen::generate_global(w));
    std::cout << "wrote " << out << " (global assembly — only this export "
              << "materializes the full operator)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "bench") return cmd_bench(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "suite") return cmd_suite(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "gen") return cmd_gen(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "fsaic: " << e.what() << "\n";
    return 1;
  }
}
