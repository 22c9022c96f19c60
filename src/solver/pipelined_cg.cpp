#include "solver/pipelined_cg.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "exec/executor.hpp"
#include "sparse/vector_ops.hpp"

namespace fsaic {

namespace {

/// Fused local reductions: returns (r.u, w.u, r.r) with ONE recorded
/// allreduce of three doubles — the wire-level point of the method. One
/// superstep computes the per-rank triples, one width-3 tree allreduce
/// combines them.
struct FusedDots {
  value_t ru;
  value_t wu;
  value_t rr;
};

FusedDots fused_dots(const DistVector& r, const DistVector& u,
                     const DistVector& w, CommStats* stats,
                     TraceRecorder* trace, Executor* exec) {
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  Executor& ex = resolve_executor(exec);
  const rank_t n = r.nranks();
  std::vector<value_t> partials(static_cast<std::size_t>(n) * 3, 0.0);
  ex.parallel_ranks(n, [&](rank_t p) {
    const auto rb = r.block(p);
    const auto ub = u.block(p);
    const auto wb = w.block(p);
    value_t ru = 0.0;
    value_t wu = 0.0;
    value_t rr = 0.0;
    for (std::size_t i = 0; i < rb.size(); ++i) {
      ru += rb[i] * ub[i];
      wu += wb[i] * ub[i];
      rr += rb[i] * rb[i];
    }
    const std::size_t base = static_cast<std::size_t>(p) * 3;
    partials[base + 0] = ru;
    partials[base + 1] = wu;
    partials[base + 2] = rr;
  });
  FusedDots d{0.0, 0.0, 0.0};
  std::array<value_t, 3> out{};
  ex.allreduce_sum(partials, 3, out);
  d.ru = out[0];
  d.wu = out[1];
  d.rr = out[2];
  if (stats != nullptr) stats->record_allreduce(3 * sizeof(value_t));
  if (trace != nullptr) {
    trace->complete("allreduce", "comm", t0, trace->now_us() - t0);
  }
  return d;
}

/// The per-iteration reductions, restructured for genuine overlap: one
/// superstep computes the same per-rank (r.u, w.u, r.r) accumulators as the
/// historic width-3 fused reduction, but only (r.u, w.u) — which gate the
/// recurrence — are combined with a blocking width-2 allreduce. The
/// residual-norm reduction is started asynchronously (before the blocking
/// one, so the background combiner overlaps it) and waited on one iteration
/// later, behind the next preconditioner application and SpMV. Splitting
/// the width-3 tree into width-2 + width-1 is bit-exact: tree columns never
/// interact, and the tree shape depends only on the rank count.
struct PipelinedDots {
  value_t ru;
  value_t wu;
};

PipelinedDots fused_dots_split(const DistVector& r, const DistVector& u,
                               const DistVector& w, AsyncAllreduce& rr_async,
                               CommStats* stats, TraceRecorder* trace,
                               Executor* exec) {
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  Executor& ex = resolve_executor(exec);
  const rank_t n = r.nranks();
  std::vector<value_t> pair_partials(static_cast<std::size_t>(n) * 2, 0.0);
  std::vector<value_t> rr_partials(static_cast<std::size_t>(n), 0.0);
  ex.parallel_ranks(n, [&](rank_t p) {
    const auto rb = r.block(p);
    const auto ub = u.block(p);
    const auto wb = w.block(p);
    value_t ru = 0.0;
    value_t wu = 0.0;
    value_t rr = 0.0;
    for (std::size_t i = 0; i < rb.size(); ++i) {
      ru += rb[i] * ub[i];
      wu += wb[i] * ub[i];
      rr += rb[i] * rb[i];
    }
    pair_partials[static_cast<std::size_t>(p) * 2 + 0] = ru;
    pair_partials[static_cast<std::size_t>(p) * 2 + 1] = wu;
    rr_partials[static_cast<std::size_t>(p)] = rr;
  });
  rr_async = ex.allreduce_begin(std::move(rr_partials), 1);
  if (stats != nullptr) stats->record_async_allreduce(sizeof(value_t));
  PipelinedDots d{0.0, 0.0};
  std::array<value_t, 2> out{};
  ex.allreduce_sum(pair_partials, 2, out);
  d.ru = out[0];
  d.wu = out[1];
  if (stats != nullptr) stats->record_allreduce(2 * sizeof(value_t));
  if (trace != nullptr) {
    trace->complete("allreduce", "comm", t0, trace->now_us() - t0);
  }
  return d;
}

}  // namespace

SolveResult pcg_solve_pipelined(const DistCsr& a, const DistVector& b,
                                DistVector& x, const Preconditioner& m,
                                const SolveOptions& options) {
  FSAIC_REQUIRE(options.rel_tol > 0.0, "tolerance must be positive");
  const Layout& layout = a.row_layout();
  FSAIC_REQUIRE(b.layout() == layout && x.layout() == layout,
                "vector layouts must match the matrix");

  SolveResult result;
  TraceRecorder* const trace = options.trace;
  Executor* const exec = options.exec;
  DistVector r(layout);
  DistVector u(layout);  // u = M r
  DistVector w(layout);  // w = A u
  DistVector p_dir(layout);
  DistVector s(layout);  // s = A p

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
  {
    ScopedPhase phase(trace, "precond_apply", "solve");
    m.apply(r, u, &result.comm, exec);
  }
  {
    ScopedPhase phase(trace, "spmv", "solve");
    a.spmv(u, w, &result.comm, trace, exec);
  }

  FusedDots d = fused_dots(r, u, w, &result.comm, trace, exec);
  result.initial_residual = std::sqrt(d.rr);
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

  value_t gamma = d.ru;
  value_t alpha = d.wu > 0.0 ? gamma / d.wu : 0.0;
  if (!(d.wu > 0.0)) return result;  // not positive definite along u
  value_t beta = 0.0;

  // The residual-norm reduction of iteration k is begun asynchronously at
  // the end of loop body k-1 and waited on inside body k, AFTER the
  // preconditioner application and SpMV it overlaps — the lagged
  // convergence check. settle_rr waits the in-flight reduction, records its
  // iteration (so residual histories match the historic blocking solver
  // entry for entry), and reports whether the solve converged there.
  AsyncAllreduce rr_async;
  int rr_iteration = 0;
  const auto settle_rr = [&]() -> bool {
    if (!rr_async.pending()) return false;
    const double t0 = trace != nullptr ? trace->now_us() : 0.0;
    value_t rr = 0.0;
    rr_async.wait(std::span<value_t>(&rr, 1));
    if (trace != nullptr) {
      trace->complete("allreduce_wait", "comm", t0, trace->now_us() - t0);
    }
    const value_t rnorm = std::sqrt(rr);
    result.final_residual = rnorm;
    result.iterations = rr_iteration;
    telemetry.record_iteration(rr_iteration, rnorm);
    return rnorm <= target;
  };

  for (int it = 0; it < options.max_iterations; ++it) {
    ScopedPhase iteration_phase(trace, "iteration", "solve");
    // p = u + beta p;  s = w + beta s;  r -= alpha s. The x update is
    // deferred until past the lagged convergence check below: if the
    // previous iteration turns out to be the converged one, x must keep its
    // value as of that iteration. The fused sweep runs the same three
    // element-wise updates in one pass and one superstep — bit-identical.
    dist_fused_cg_sweep(u, w, beta, -alpha, p_dir, s, r, exec);

    {
      ScopedPhase phase(trace, "precond_apply", "solve");
      m.apply(r, u, &result.comm, exec);
    }
    {
      ScopedPhase phase(trace, "spmv", "solve");
      a.spmv(u, w, &result.comm, trace, exec);
    }

    // Lagged convergence check of the previous iteration's residual: its
    // reduction has been progressing behind the two operator applications
    // above (and, when converged, the solve pays exactly that one
    // speculative preconditioner + SpMV for the overlap).
    if (settle_rr()) {
      result.converged = true;
      return result;
    }
    dist_axpy(alpha, p_dir, x, exec);

    rr_iteration = it + 1;
    const PipelinedDots dd =
        fused_dots_split(r, u, w, rr_async, &result.comm, trace, exec);

    if (!(std::isfinite(dd.ru) && std::isfinite(dd.wu))) {
      // Historic check order: this iteration's convergence test precedes
      // the breakdown abort.
      if (settle_rr()) {
        result.converged = true;
        return result;
      }
      FSAIC_CHECK(false, "pipelined CG breakdown: reductions not finite");
    }
    const value_t gamma_next = dd.ru;
    beta = gamma_next / gamma;
    const value_t denom = dd.wu - beta * gamma_next / alpha;
    if (!(denom > 0.0) || !std::isfinite(denom)) {
      // Loss of positive-definiteness / recurrence breakdown. The pending
      // residual norm still decides convergence, exactly as the historic
      // convergence-then-breakdown check order did.
      result.converged = settle_rr();
      return result;
    }
    alpha = gamma_next / denom;
    gamma = gamma_next;
  }
  result.converged = settle_rr();
  return result;
}

}  // namespace fsaic
