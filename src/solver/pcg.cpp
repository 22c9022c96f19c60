#include "solver/pcg.hpp"

#include <cmath>

#include "common/error.hpp"
#include "exec/executor.hpp"

namespace fsaic {

SolveResult pcg_solve(const DistCsr& a, const DistVector& b, DistVector& x,
                      const Preconditioner& m, const SolveOptions& options) {
  FSAIC_REQUIRE(options.rel_tol > 0.0, "tolerance must be positive");
  FSAIC_REQUIRE(options.max_iterations >= 0, "max_iterations must be >= 0");
  const Layout& layout = a.row_layout();
  FSAIC_REQUIRE(b.layout() == layout && x.layout() == layout,
                "vector layouts must match the matrix");

  SolveResult result;
  TraceRecorder* const trace = options.trace;
  Executor* const exec = options.exec;
  DistVector r(layout);
  DistVector z(layout);
  DistVector d(layout);
  DistVector q(layout);

  // r = b - A x.
  {
    ScopedPhase phase(trace, "spmv", "solve");
    a.spmv(x, r, &result.comm, trace, exec);
  }
  resolve_executor(exec).parallel_ranks(layout.nranks(), [&](rank_t p) {
    const auto bb = b.block(p);
    auto rb = r.block(p);
    for (std::size_t i = 0; i < rb.size(); ++i) {
      rb[i] = bb[i] - rb[i];
    }
  });

  result.initial_residual = dist_norm2(r, &result.comm, trace, exec);
  result.final_residual = result.initial_residual;
  IterationEmitter telemetry(options.sink, trace, result.residual_history,
                             options.track_residual_history, result.comm);
  telemetry.record_initial(result.initial_residual);
  if (result.initial_residual == 0.0) {
    result.converged = true;
    return result;
  }
  const value_t reference = options.reference_residual > 0.0
                                ? options.reference_residual
                                : result.initial_residual;
  const value_t target = options.rel_tol * reference;
  if (options.reference_residual > 0.0 && result.initial_residual <= target) {
    // Warm start already at the cold solve's target: nothing to iterate.
    result.converged = true;
    return result;
  }

  {
    ScopedPhase phase(trace, "precond_apply", "solve");
    m.apply(r, z, &result.comm, exec);
  }
  dist_copy(z, d, exec);
  value_t rho = dist_dot(r, z, &result.comm, trace, exec);

  for (int it = 0; it < options.max_iterations; ++it) {
    ScopedPhase iteration_phase(trace, "iteration", "solve");
    {
      ScopedPhase phase(trace, "spmv", "solve");
      a.spmv(d, q, &result.comm, trace, exec);
    }
    const value_t dq = dist_dot(d, q, &result.comm, trace, exec);
    FSAIC_CHECK(std::isfinite(dq), "CG breakdown: d^T A d is not finite");
    if (dq <= 0.0) {
      // A (or the preconditioned operator) is not positive definite along d;
      // report non-convergence rather than diverging silently.
      result.iterations = it;
      return result;
    }
    const value_t alpha = rho / dq;
    dist_fused_axpy_pair(alpha, d, -alpha, q, x, r, exec);

    const value_t rnorm = dist_norm2(r, &result.comm, trace, exec);
    result.final_residual = rnorm;
    result.iterations = it + 1;
    telemetry.record_iteration(it + 1, rnorm);
    if (rnorm <= target) {
      result.converged = true;
      return result;
    }

    {
      ScopedPhase phase(trace, "precond_apply", "solve");
      m.apply(r, z, &result.comm, exec);
    }
    const value_t rho_next = dist_dot(r, z, &result.comm, trace, exec);
    FSAIC_CHECK(std::isfinite(rho_next), "CG breakdown: r^T z is not finite");
    const value_t beta = rho_next / rho;
    rho = rho_next;
    dist_xpby(z, beta, d, exec);
  }
  return result;
}

SolveResult cg_solve(const DistCsr& a, const DistVector& b, DistVector& x,
                     const SolveOptions& options) {
  const IdentityPreconditioner identity;
  return pcg_solve(a, b, x, identity, options);
}

}  // namespace fsaic
