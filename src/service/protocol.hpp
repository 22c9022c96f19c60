// JSONL request/response protocol of the solve service.
//
// One request per line in, one response per line out — the format scripts,
// CI and `fsaic serve` speak. A request names its operator either by
// MatrixMarket path ("matrix") or by built-in suite entry ("generate"),
// the build configuration (method/filter/strategy/ranks) and the solve
// configuration (solver/tol/max_iterations/rhs). Responses carry the
// solver outcome plus the serving metadata the acceptance checks key on:
// cache hit/miss, batch size, and the queue/load/setup/solve latency split.
//
// Request schema (defaults in parentheses):
//   {"id": "r1",                      required, echoed in the response
//    "matrix": "path.mtx"             exactly one of matrix / generate
//    "generate": "thermal2",
//    "method": "fsaie-comm",          fsai|fsaie|fsaie-comm|fsaie-full
//    "filter": 0.01, "filter_strategy": "dynamic"|"static",
//    "ranks": 8, "solver": "pcg"|"pipelined-cg",
//    "tol": 1e-8, "max_iterations": 100000,
//    "rhs": "b.mtx",                  MatrixMarket vector (else synthesized)
//    "rhs_seed": 2022,                seed of the synthesized RHS
//    "deadline_ms": 250.0,            relative to submission; absent = none
//    "priority": 0,                   higher dequeues sooner (scheduler lane)
//    "warm_start": false,             reuse + remember recent same-operator/
//                                     same-RHS solutions (changes residual
//                                     histories by design, hence opt-in)
//    "history": false}                include per-iteration residuals
//
// Response schema:
//   {"kind": "response", "id",
//    "rid",                           service-minted request id (admission
//                                     order; absent on parse errors)
//    "status": "ok"|"rejected"|"error",
//    "reason",                        rejected/error only
//    "converged", "iterations", "initial_residual", "final_residual",
//    "cache": "hit"|"disk"|"miss", "batch_size", "fingerprint",
//    "warm_start": true,              present when a cached solution seeded x0
//    "queue_us", "load_us", "setup_us", "solve_us", "total_us",
//    "residuals": [...]}              when history was requested
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace fsaic {

struct SolveRequest {
  std::string id;
  std::string matrix_path;  ///< MatrixMarket file ("matrix"); empty if generated
  std::string generate;     ///< suite entry name ("generate"); empty if file
  std::string method = "fsaie-comm";
  value_t filter = 0.01;
  std::string filter_strategy = "dynamic";
  rank_t ranks = 8;
  std::string solver = "pcg";
  value_t tol = 1e-8;
  int max_iterations = 100000;
  std::string rhs_path;  ///< MatrixMarket vector; empty -> synthesized
  std::uint64_t rhs_seed = 2022;
  /// Deadline relative to submission; negative = none. A value of 0 is
  /// already due at submission, which deterministically exercises the
  /// rejection path.
  double deadline_ms = -1.0;
  /// Scheduler lane: higher-priority requests dequeue before lower ones,
  /// ahead of the EDF ordering. Does not affect solve results.
  int priority = 0;
  /// Opt into the solution cache: warm-start from a recent same-operator /
  /// same-RHS solution and remember this solve's solution for the next one.
  /// Off by default because a warm start shortens the residual history.
  bool warm_start = false;
  bool want_history = false;

  /// The coalescing key of the multi-RHS batcher: requests with equal batch
  /// keys target the same operator and build configuration, so they share
  /// one setup (matrix load, partition, factor, halo scheme).
  [[nodiscard]] std::string batch_key() const;
};

struct SolveResponse {
  std::string id;
  /// Request id minted by the service at admission (1, 2, … in submission
  /// order; 0 = not serviced, e.g. a parse-error response). The same rid
  /// tags the service's log lines and trace slice args, so one grep
  /// correlates a request across all three observability surfaces.
  std::int64_t rid = 0;
  std::string status = "ok";  ///< "ok" | "rejected" | "error"
  std::string reason;         ///< e.g. "queue_full", "deadline", parse error
  bool converged = false;
  int iterations = 0;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  std::string cache;  ///< "hit" (RAM) | "disk" (store reload) | "miss"
                      ///< (empty when no factor was involved)
  int batch_size = 0;
  std::string fingerprint;  ///< hex content hash of the partitioned system
  bool warm_start = false;  ///< x0 was seeded from a cached solution
  double queue_us = 0.0;    ///< submission -> dequeue
  /// Operator load: read or generate, partition and distribute A (about 0
  /// when the batch leased a pooled operator). queue + load + setup + solve
  /// accounts for a solo request's total.
  double load_us = 0.0;
  double setup_us = 0.0;    ///< fingerprint + factor acquisition (build or
                            ///< cache fetch) + preconditioner distribution
  double solve_us = 0.0;
  double total_us = 0.0;
  std::vector<double> residuals;  ///< per-iteration history when requested

  [[nodiscard]] bool ok() const { return status == "ok"; }
};

/// Parse and validate one request object; throws fsaic::Error with a
/// descriptive message on schema violations.
[[nodiscard]] SolveRequest parse_request(const JsonValue& v);

[[nodiscard]] JsonValue to_json(const SolveRequest& req);
[[nodiscard]] JsonValue to_json(const SolveResponse& resp);

}  // namespace fsaic
