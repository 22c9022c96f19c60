// In-process solve server: fingerprint-sharded workers, two-tier factor
// cache, multi-RHS batching, SLO-aware scheduling and warm-started solves.
//
// The library's one-shot entry points rebuild the preconditioner on every
// run even though FSAI setup amortizes across solves — exactly the regime
// the paper targets. SolveService keeps the expensive state alive: requests
// enter a bounded sharded scheduler (admission control rejects with a
// reason when the scheduler is full, a request's deadline has already
// passed, or the modeled backlog predicts the deadline cannot be met), a
// pool of worker threads pops them, and a worker that dequeues a request
// also drains every queued request with the same batch key (operator +
// build configuration). The batch shares one setup — matrix load,
// partition, factor acquisition, halo scheme — and solves its right-hand
// sides back-to-back, so per-request results are bit-identical whether a
// request was solved alone or inside a batch, with a cold, RAM-cached or
// disk-reloaded factor, and across any worker count.
//
// Sharding: requests are routed to worker lanes by operator fingerprint
// (`hash(batch_key) % workers`), so same-operator traffic lands on the same
// worker — batching becomes systematic instead of accidental and each
// shard's slice of the factor cache stays hot. Idle workers steal from
// other lanes, so a single hot operator never strands the rest of the pool.
// Within a lane, dequeue order is priority-then-EDF (see scheduler.hpp).
//
// Factors come from a content-addressed two-tier FactorCache (RAM LRU +
// optional fingerprint-addressed disk store, see factor_cache.hpp);
// repeated solves against the same operator skip setup entirely, and a
// restarted service warm-starts from the store (`fsaic serve --store`).
// Generated operators ("generate" requests) go one step further: after a
// batch served from a RAM hit, the worker returns its solve-ready state
// (distributed operator, layout, cache key, preconditioner) to a small pool,
// and the next batch with the same key leases it exclusively instead of
// regenerating, re-fingerprinting and redistributing (docs/service.md,
// "Operator reuse").
// Requests that opt in ("warm_start": true) additionally reuse the cached
// solution of a recent same-operator/same-RHS request as the CG initial
// guess, converging against the original cold solve's residual target.
//
// Observability: queue depth / in-flight gauges, cache / rejection /
// warm-start counters, and per-request queue/setup/solve latency histograms
// land in an attached MetricsRegistry; an attached TraceRecorder gets one
// queue/setup/solve slice triple per request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/factor_cache.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"

namespace fsaic {

class Executor;

struct ServiceOptions {
  /// Worker threads solving requests (results are identical for any count).
  int workers = 1;
  /// Bounded request scheduler; submissions beyond this are rejected
  /// ("queue_full") instead of blocking the producer.
  std::size_t queue_capacity = 64;
  /// Resident factors in the LRU cache (0 disables factor reuse).
  std::size_t cache_capacity = 8;
  /// Directory of the on-disk factor store (empty = RAM-only cache).
  /// Factors are persisted write-through and reloaded transparently on RAM
  /// misses, so a restarted service reuses the previous process's setups.
  /// (`{}` so designated initializers may omit it, as in trace.hpp.)
  std::string store_dir{};
  /// Total bytes the disk store may occupy (0 = unlimited). When a persist
  /// pushes the store past the cap, the least-recently-accessed factor
  /// files are deleted until it fits (see factor_cache.hpp).
  std::size_t store_max_bytes = 0;
  /// Coalesce queued same-operator requests into one batched solve.
  bool batching = true;
  /// Executor threads per worker for the solves themselves (1 = sequential;
  /// results are bit-identical either way).
  int solver_threads = 1;
  /// Recent solutions remembered for warm-starting opted-in requests
  /// ("warm_start": true); 0 disables the solution cache.
  std::size_t solution_cache_capacity = 16;
  /// Borrowed observability attachments; all optional. The logger receives
  /// one structured event per request-lifecycle step (admit / reject /
  /// dequeue / setup / solve / error), each carrying the request id `rid`
  /// minted at admission.
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  Logger* log = nullptr;
};

/// Aggregate serving counters (also mirrored into the MetricsRegistry).
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;   ///< accepted into the scheduler
  std::int64_t completed = 0;  ///< responses with status "ok"
  std::int64_t errors = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_deadline = 0;
  /// Load-shedding: rejected at admission because the modeled backlog +
  /// this request's predicted service time already exceed its deadline.
  std::int64_t rejected_predicted = 0;
  std::int64_t batches = 0;
  std::int64_t max_batch_size = 0;
  std::int64_t warm_starts = 0;  ///< solves seeded from the solution cache
  /// Batches that solved with a leased, already-distributed operator and
  /// preconditioner (no load, fingerprint or factor distribution).
  std::int64_t operator_reuses = 0;
  /// Request lines rejected by the JSONL parser (never submitted, so not in
  /// `submitted`); counted by serve_requests.
  std::int64_t rejected_parse = 0;
  FactorCacheStats cache;

  /// Fold another block in (counters add, max_batch_size maxes) — how watch
  /// mode aggregates its per-pass stats into one end-of-run summary.
  void merge(const ServiceStats& other);
};

/// One JSONL summary record ({"kind":"serve", …}) of a service run: the
/// counters above plus the cache block. `fsaic serve` appends it to the
/// FSAIC_REPORT file in both --requests and --watch mode.
[[nodiscard]] JsonValue serve_stats_to_json(const ServiceStats& stats);

class SolveService {
 public:
  /// `on_response` receives exactly one SolveResponse per submitted request
  /// — immediately (from submit) for admission rejections, from a worker
  /// thread otherwise. Calls are serialized by the service.
  using ResponseHandler = std::function<void(const SolveResponse&)>;

  SolveService(ServiceOptions options, ResponseHandler on_response);

  /// Drains the scheduler (all accepted requests are answered) and joins
  /// the workers.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admission control: enqueue the request, or deliver a rejection
  /// response ("queue_full" / "deadline" / "deadline_predicted") through
  /// the handler right away. Returns true when the request was accepted.
  bool submit(SolveRequest request);

  /// Block until every accepted request has been answered.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const FactorCache& cache() const { return cache_; }

 private:
  struct Pending {
    SolveRequest request;
    std::string batch_key;
    std::chrono::steady_clock::time_point submitted_at;
    std::int64_t rid = 0;  ///< minted at admission, echoed everywhere
    std::size_t shard = 0;  ///< hash(batch_key) % workers — the worker lane
    /// Absolute deadline in steady-clock microseconds (-1 = none); the EDF
    /// sort key of the scheduler.
    double deadline_at_us = -1.0;
    /// Modeled service time charged to the backlog accounting at admission
    /// and released at dequeue (0 when the operator has no history yet).
    double predicted_us = 0.0;
  };

  /// Scheduler adapter (see scheduler.hpp for the Traits contract).
  struct PendingTraits {
    static std::size_t shard(const Pending& p) { return p.shard; }
    static int priority(const Pending& p) { return p.request.priority; }
    static double deadline_us(const Pending& p) { return p.deadline_at_us; }
    static std::int64_t seq(const Pending& p) { return p.rid; }
  };

  /// Solve-ready state of one operator: what a batch builds before its
  /// first solve. Pooled per batch key for reuse (see lease_operator).
  struct OperatorState;

  /// A remembered solution: the warm-start seed of a repeat request.
  struct CachedSolution {
    std::vector<value_t> x;  ///< global solution vector (pre-partition order)
    /// ||r_0|| of the original cold solve — the reference the warm solve's
    /// convergence target is anchored to (SolveOptions::reference_residual).
    double reference_residual = 0.0;
  };

  /// Load (read or generate), partition and distribute the lead request's
  /// operator.
  [[nodiscard]] static std::unique_ptr<OperatorState> load_operator(
      const SolveRequest& lead, Executor* exec);
  /// Take a pooled state of `batch_key` out of the pool (null if none):
  /// copies of a DistCsr share one set of halo mailboxes, so a state is
  /// only ever used by one batch at a time.
  [[nodiscard]] std::unique_ptr<OperatorState> lease_operator(
      const std::string& batch_key);
  /// Put a state (back) into the pool as most recently used; the least
  /// recently used entry goes when the pool exceeds cache_capacity. A key
  /// solved by several workers at once may hold several states.
  void return_operator(const std::string& batch_key,
                       std::unique_ptr<OperatorState> state);

  void worker_loop(std::size_t shard);
  void process_batch(std::vector<Pending> batch, Executor* exec);
  void deliver(const SolveResponse& response);
  void finish_one();
  [[nodiscard]] static bool deadline_expired(
      const Pending& p, std::chrono::steady_clock::time_point now);

  /// EWMA of observed per-request service time for one batch key (0 =
  /// never seen), and the update after a completed request.
  [[nodiscard]] double predict_us(const std::string& batch_key) const;
  void record_service_us(const std::string& batch_key, double us);

  [[nodiscard]] std::optional<CachedSolution> solution_get(
      const std::string& key);
  void solution_put(const std::string& key, CachedSolution solution);

  ServiceOptions options_;
  ResponseHandler on_response_;
  ShardedScheduler<Pending, PendingTraits> queue_;
  FactorCache cache_;
  std::atomic<std::int64_t> next_rid_{0};
  /// Sum of predicted_us over queued requests (backlog model of the
  /// predictive admission check), in integer microseconds.
  std::atomic<std::int64_t> queued_predicted_us_{0};

  mutable std::mutex predict_mutex_;
  std::map<std::string, double> service_time_ewma_us_;

  std::mutex pool_mutex_;
  /// Leased-operator pool, most recently returned first.
  std::list<std::pair<std::string, std::unique_ptr<OperatorState>>> pool_;

  std::mutex solution_mutex_;
  std::list<std::string> solution_lru_;
  std::map<std::string,
           std::pair<CachedSolution, std::list<std::string>::iterator>>
      solutions_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;

  std::mutex drain_mutex_;
  std::condition_variable drained_;
  std::int64_t accepted_ = 0;
  std::int64_t answered_ = 0;

  std::mutex deliver_mutex_;
  std::vector<std::thread> workers_;
};

/// Run a JSONL request stream end to end: parse every line of `in`, submit
/// it (malformed lines get an "error" response with the parse message and
/// count into `rejected_parse`), drain, and write one JSONL response per
/// request to `out` in completion order. Returns the final stats.
ServiceStats serve_requests(const ServiceOptions& options, std::istream& in,
                            std::ostream& out);

/// One pass of `fsaic serve --watch`: process every "*.jsonl" file in `dir`
/// that has no "<stem>.out.jsonl" yet, writing responses next to it.
/// Returns the number of request files processed; when `accumulate` is
/// non-null, each file's ServiceStats are merged into it so a watch session
/// can report the same end-of-run summary as --requests mode.
int process_watch_directory(const ServiceOptions& options,
                            const std::string& dir,
                            ServiceStats* accumulate = nullptr);

}  // namespace fsaic
