// Solve a user-supplied SuiteSparse / MatrixMarket SPD system with the
// FSAIE-Comm preconditioned CG — the real-world entry point of the library.
//
//   build/examples/mm_solver <matrix.mtx> [ranks = 8] [filter = 0.01]
//                            [machine = skylake]
//
// The right-hand side is random, normalized to the matrix max norm, and the
// convergence criterion reduces the initial residual by eight orders of
// magnitude, matching the paper's Section 5.1 setup.
#include <cstdlib>
#include <iostream>

#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "matgen/generators.hpp"
#include "perf/cost_model.hpp"
#include "solver/pcg.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace fsaic;
  if (argc < 2) {
    std::cerr << "usage: mm_solver <matrix.mtx> [ranks] [filter] [machine]\n";
    return 1;
  }
  const rank_t ranks = argc > 2 ? std::atoi(argv[2]) : 8;
  const value_t filter = argc > 3 ? std::atof(argv[3]) : 0.01;
  const Machine machine = machine_by_name(argc > 4 ? argv[4] : "skylake");

  CsrMatrix a = read_matrix_market_file(argv[1]);
  FSAIC_REQUIRE(a.rows() == a.cols(), "matrix must be square");
  FSAIC_REQUIRE(a.is_symmetric(1e-10 * a.max_abs()),
                "matrix must be symmetric (CG requires SPD)");
  std::cout << argv[1] << ": " << a.rows() << " rows, " << a.nnz() << " nnz\n";

  const PartitionedSystem sys = partition_system(a, ranks);
  const DistCsr a_dist = DistCsr::distribute(sys.matrix, sys.layout);

  Rng rng(2022);
  std::vector<value_t> bg(static_cast<std::size_t>(a.rows()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  const value_t bmax = norm_inf(bg);
  if (bmax > 0) scale(a.max_abs() / bmax, bg);
  std::vector<value_t> b_perm(bg.size());
  for (std::size_t i = 0; i < bg.size(); ++i) {
    b_perm[static_cast<std::size_t>(sys.perm[i])] = bg[i];
  }
  const DistVector b(sys.layout, b_perm);

  const CostModel cost(machine, {.threads_per_rank = 8});
  for (const ExtensionMode mode : {ExtensionMode::None, ExtensionMode::CommAware}) {
    FsaiOptions opts;
    opts.extension = mode;
    opts.cache_line_bytes = machine.l1.line_bytes;
    opts.filter = filter;
    opts.filter_strategy = FilterStrategy::Dynamic;
    const FsaiBuildResult build =
        build_fsai_preconditioner(sys.matrix, sys.layout, opts);
    const auto precond = make_factorized_preconditioner(build, to_string(mode));
    DistVector x(sys.layout);
    const SolveResult r = pcg_solve(a_dist, b, x, *precond,
                                    {.rel_tol = 1e-8, .max_iterations = 50000});
    std::cout << to_string(mode) << ": " << r.iterations << " iterations"
              << (r.converged ? "" : " (NOT converged)") << ", +"
              << build.nnz_increase_pct << "% entries, modeled time "
              << r.iterations *
                     cost.pcg_iteration_cost(a_dist, build.g_dist, build.gt_dist)
                         .total()
              << " s on " << machine.name << "\n";
  }
  return 0;
}
