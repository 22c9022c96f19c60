#include "service/solve_service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "exec/exec_policy.hpp"
#include "matgen/suite.hpp"
#include "solver/pcg.hpp"
#include "solver/pipelined_cg.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/ops.hpp"
#include "wgen/wgen.hpp"

namespace fsaic {

namespace {

/// EWMA smoothing of the per-operator service-time model: heavy enough to
/// converge within a few requests, light enough to track drift (e.g. the
/// setup -> cache-hit transition after the first solve of an operator).
constexpr double kServiceTimeAlpha = 0.3;

double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double us_since_epoch(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration<double, std::micro>(tp.time_since_epoch())
      .count();
}

ExtensionMode extension_of(const std::string& method) {
  if (method == "fsai") return ExtensionMode::None;
  if (method == "fsaie") return ExtensionMode::LocalOnly;
  if (method == "fsaie-comm") return ExtensionMode::CommAware;
  FSAIC_CHECK(method == "fsaie-full", "unexpected method " + method);
  return ExtensionMode::FullHalo;
}

/// The paper's synthesized right-hand side (the exact sequence `fsaic
/// solve` uses), permuted into the partitioned numbering.
std::vector<value_t> synthesize_rhs(std::uint64_t seed, index_t n) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_uniform(-1.0, 1.0);
  return b;
}

std::vector<value_t> permute_rhs(std::span<const value_t> global,
                                 std::span<const index_t> perm) {
  std::vector<value_t> out(global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    out[static_cast<std::size_t>(perm[i])] = global[i];
  }
  return out;
}

const char* tier_string(CacheTier tier) {
  switch (tier) {
    case CacheTier::Ram:
      return "hit";
    case CacheTier::Disk:
      return "disk";
    case CacheTier::Miss:
      break;
  }
  return "miss";
}

/// Base field set of every request-lifecycle log event.
JsonValue rid_fields(std::int64_t rid, const std::string& id) {
  JsonValue f = JsonValue::object();
  f["rid"] = rid;
  f["id"] = id;
  return f;
}

/// The {"rid":N} args object tagged onto the service's trace slices.
std::string rid_args(std::int64_t rid) {
  return strformat("{\"rid\":%lld}", static_cast<long long>(rid));
}

}  // namespace

struct SolveService::OperatorState {
  std::unique_ptr<DistCsr> a;
  /// Layout and permutation; `matrix` holds the assembled partitioned
  /// operator only while a batch needs it (fingerprint or build) and is
  /// dropped before the state is pooled.
  PartitionedSystem sys;
  std::string fingerprint_hex;  ///< empty until the first fingerprint
  FactorCache::Key key;
  /// The cached factor `precond` was distributed from; a batch reuses
  /// `precond` only if the cache still returns this very object.
  std::shared_ptr<const CachedFactor> factor;
  std::unique_ptr<FactorizedPreconditioner> precond;
};

void ServiceStats::merge(const ServiceStats& other) {
  submitted += other.submitted;
  admitted += other.admitted;
  completed += other.completed;
  errors += other.errors;
  rejected_queue_full += other.rejected_queue_full;
  rejected_deadline += other.rejected_deadline;
  rejected_predicted += other.rejected_predicted;
  batches += other.batches;
  max_batch_size = std::max(max_batch_size, other.max_batch_size);
  warm_starts += other.warm_starts;
  operator_reuses += other.operator_reuses;
  rejected_parse += other.rejected_parse;
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
  cache.insertions += other.cache.insertions;
  cache.evictions += other.cache.evictions;
  cache.disk_hits += other.cache.disk_hits;
  cache.spills += other.cache.spills;
  cache.load_failures += other.cache.load_failures;
  cache.store_evictions += other.cache.store_evictions;
}

JsonValue serve_stats_to_json(const ServiceStats& stats) {
  JsonValue v = JsonValue::object();
  v["kind"] = "serve";
  v["submitted"] = stats.submitted;
  v["admitted"] = stats.admitted;
  v["completed"] = stats.completed;
  v["errors"] = stats.errors;
  v["rejected_queue_full"] = stats.rejected_queue_full;
  v["rejected_deadline"] = stats.rejected_deadline;
  v["rejected_predicted"] = stats.rejected_predicted;
  v["batches"] = stats.batches;
  v["max_batch_size"] = stats.max_batch_size;
  v["warm_starts"] = stats.warm_starts;
  v["operator_reuses"] = stats.operator_reuses;
  v["rejected_parse"] = stats.rejected_parse;
  JsonValue cache = JsonValue::object();
  cache["hits"] = stats.cache.hits;
  cache["misses"] = stats.cache.misses;
  cache["insertions"] = stats.cache.insertions;
  cache["evictions"] = stats.cache.evictions;
  cache["disk_hits"] = stats.cache.disk_hits;
  cache["spills"] = stats.cache.spills;
  cache["load_failures"] = stats.cache.load_failures;
  cache["store_evictions"] = stats.cache.store_evictions;
  v["cache"] = std::move(cache);
  return v;
}

SolveService::SolveService(ServiceOptions options, ResponseHandler on_response)
    : options_(options),
      on_response_(std::move(on_response)),
      queue_(options.queue_capacity,
             static_cast<std::size_t>(std::max(options.workers, 1))),
      cache_(options.cache_capacity, options.store_dir,
             options.store_max_bytes) {
  FSAIC_REQUIRE(options_.workers >= 1, "service needs at least one worker");
  FSAIC_REQUIRE(options_.solver_threads >= 1, "solver_threads must be >= 1");
  FSAIC_REQUIRE(on_response_ != nullptr, "service needs a response handler");
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back(
        [this, w] { worker_loop(static_cast<std::size_t>(w)); });
  }
}

SolveService::~SolveService() {
  queue_.close();
  for (auto& t : workers_) t.join();
}

bool SolveService::deadline_expired(
    const Pending& p, std::chrono::steady_clock::time_point now) {
  if (p.request.deadline_ms < 0.0) return false;
  return us_between(p.submitted_at, now) >= p.request.deadline_ms * 1000.0;
}

double SolveService::predict_us(const std::string& batch_key) const {
  const std::lock_guard<std::mutex> lock(predict_mutex_);
  const auto it = service_time_ewma_us_.find(batch_key);
  return it == service_time_ewma_us_.end() ? 0.0 : it->second;
}

void SolveService::record_service_us(const std::string& batch_key, double us) {
  const std::lock_guard<std::mutex> lock(predict_mutex_);
  auto [it, inserted] = service_time_ewma_us_.try_emplace(batch_key, us);
  if (!inserted) {
    it->second += kServiceTimeAlpha * (us - it->second);
  }
}

std::optional<SolveService::CachedSolution> SolveService::solution_get(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(solution_mutex_);
  const auto it = solutions_.find(key);
  if (it == solutions_.end()) return std::nullopt;
  solution_lru_.splice(solution_lru_.begin(), solution_lru_,
                       it->second.second);
  return it->second.first;
}

void SolveService::solution_put(const std::string& key,
                                CachedSolution solution) {
  if (options_.solution_cache_capacity == 0) return;
  const std::lock_guard<std::mutex> lock(solution_mutex_);
  const auto it = solutions_.find(key);
  if (it != solutions_.end()) {
    it->second.first = std::move(solution);
    solution_lru_.splice(solution_lru_.begin(), solution_lru_,
                         it->second.second);
    return;
  }
  if (solutions_.size() >= options_.solution_cache_capacity) {
    solutions_.erase(solution_lru_.back());
    solution_lru_.pop_back();
  }
  solution_lru_.push_front(key);
  solutions_.emplace(key, std::make_pair(std::move(solution),
                                         solution_lru_.begin()));
}

bool SolveService::submit(SolveRequest request) {
  const auto now = std::chrono::steady_clock::now();
  Pending p{std::move(request), "", now, next_rid_.fetch_add(1) + 1};
  p.batch_key = p.request.batch_key();
  p.shard = static_cast<std::size_t>(
      fnv1a64(p.batch_key.data(), p.batch_key.size()) %
      static_cast<std::uint64_t>(std::max(options_.workers, 1)));
  if (p.request.deadline_ms >= 0.0) {
    p.deadline_at_us = us_since_epoch(now) + p.request.deadline_ms * 1000.0;
  }
  Logger* const log = options_.log;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  if (options_.metrics != nullptr) options_.metrics->add("service.submitted", 1);

  // Capture id/rid by value: the queue_full path rejects after `p` has been
  // moved into try_push.
  const std::string id = p.request.id;
  const std::int64_t rid = p.rid;
  const std::string batch_key = p.batch_key;
  const auto reject = [&](const char* reason, std::int64_t* counter,
                          const char* metric) {
    SolveResponse r;
    r.id = id;
    r.rid = rid;
    r.status = "rejected";
    r.reason = reason;
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++*counter;
    }
    if (options_.metrics != nullptr) options_.metrics->add(metric, 1);
    if (log != nullptr && log->enabled(LogLevel::Warn)) {
      JsonValue f = rid_fields(rid, id);
      f["reason"] = reason;
      log->warn("service.reject", f);
    }
    deliver(r);
    return false;
  };

  // Admission control. A deadline of 0 ms is already due at submission —
  // the deterministic way to exercise the rejection path.
  if (deadline_expired(p, now)) {
    return reject("deadline", &stats_.rejected_deadline,
                  "service.rejected_deadline");
  }

  // Predictive load-shedding: when this operator has service-time history,
  // model the wait as the queued predicted work spread over the worker pool
  // plus this request's own predicted service time; if that already blows
  // the deadline, shed now instead of rejecting after the work has queued.
  if (p.request.deadline_ms > 0.0) {
    const double own_us = predict_us(p.batch_key);
    if (own_us > 0.0) {
      const double backlog_us =
          static_cast<double>(queued_predicted_us_.load()) /
          static_cast<double>(std::max(options_.workers, 1));
      if (backlog_us + own_us >= p.request.deadline_ms * 1000.0) {
        return reject("deadline_predicted", &stats_.rejected_predicted,
                      "service.rejected_predicted");
      }
      p.predicted_us = own_us;
    }
  }

  const auto predicted = static_cast<std::int64_t>(p.predicted_us);
  if (!queue_.try_push(std::move(p))) {
    return reject("queue_full", &stats_.rejected_queue_full,
                  "service.rejected_queue_full");
  }
  queued_predicted_us_.fetch_add(predicted);
  {
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    ++accepted_;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.admitted;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->add("service.admitted", 1);
    options_.metrics->set("service.queue_depth",
                          static_cast<double>(queue_.size()));
  }
  if (log != nullptr && log->enabled(LogLevel::Info)) {
    JsonValue f = rid_fields(rid, id);
    f["batch_key"] = batch_key;
    log->info("service.admit", f);
  }
  return true;
}

std::unique_ptr<SolveService::OperatorState> SolveService::load_operator(
    const SolveRequest& lead, Executor* exec) {
  auto op = std::make_unique<OperatorState>();
  PartitionedSystem& sys = op->sys;
  // Workload-spec operators ("stencil3d:nx=64,...") generate rank-locally:
  // no global CsrMatrix exists on this path, each simulated rank
  // materializes only its own rows (suite names and files keep the
  // assembled path and its graph partitioning).
  if (lead.matrix_path.empty() && wgen::is_workload_spec(lead.generate)) {
    const auto w = wgen::resolve_workload(
        wgen::parse_workload_spec(lead.generate), lead.ranks);
    op->a = std::make_unique<DistCsr>(wgen::generate_dist(
        w, lead.ranks, CommConfig::from_env(), nullptr, exec));
    sys.layout = op->a->row_layout();
    // Generated operators are born in blocked order: identity permutation.
    sys.perm.resize(static_cast<std::size_t>(sys.layout.global_size()));
    std::iota(sys.perm.begin(), sys.perm.end(), index_t{0});
    return op;
  }
  const CsrMatrix a = lead.matrix_path.empty()
                          ? suite_entry(lead.generate).generate()
                          : read_matrix_market_file(lead.matrix_path);
  FSAIC_REQUIRE(a.rows() == a.cols(), "matrix must be square");
  FSAIC_REQUIRE(a.is_symmetric(1e-10 * a.max_abs()),
                "matrix must be symmetric (CG requires SPD)");
  sys = partition_system(a, lead.ranks);
  op->a = std::make_unique<DistCsr>(DistCsr::distribute(sys.matrix, sys.layout));
  return op;
}

std::unique_ptr<SolveService::OperatorState> SolveService::lease_operator(
    const std::string& batch_key) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  const auto it = std::find_if(pool_.begin(), pool_.end(), [&](const auto& e) {
    return e.first == batch_key;
  });
  if (it == pool_.end()) return nullptr;
  std::unique_ptr<OperatorState> state = std::move(it->second);
  pool_.erase(it);
  return state;
}

void SolveService::return_operator(const std::string& batch_key,
                                   std::unique_ptr<OperatorState> state) {
  state->sys.matrix = CsrMatrix{};
  std::unique_ptr<OperatorState> evicted;  // destroyed after the unlock
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.emplace_front(batch_key, std::move(state));
  if (pool_.size() > options_.cache_capacity) {
    evicted = std::move(pool_.back().second);
    pool_.pop_back();
  }
}

void SolveService::worker_loop(std::size_t shard) {
  // Each worker owns its executor so concurrent solves never share one; the
  // solve results do not depend on this choice.
  const auto exec = make_executor(ExecPolicy{options_.solver_threads});
  while (auto head = queue_.pop(shard)) {
    std::vector<Pending> batch;
    batch.push_back(std::move(*head));
    if (options_.batching) {
      const std::string& key = batch.front().batch_key;
      auto more = queue_.drain_if(
          [&key](const Pending& p) { return p.batch_key == key; });
      for (auto& p : more) batch.push_back(std::move(p));
    }
    // Release the batch's share of the modeled backlog now that it left the
    // scheduler.
    std::int64_t predicted = 0;
    for (const auto& p : batch) {
      predicted += static_cast<std::int64_t>(p.predicted_us);
    }
    if (predicted != 0) queued_predicted_us_.fetch_sub(predicted);
    if (options_.metrics != nullptr) {
      options_.metrics->set("service.queue_depth",
                            static_cast<double>(queue_.size()));
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
      stats_.max_batch_size = std::max(stats_.max_batch_size,
                                       static_cast<std::int64_t>(batch.size()));
    }
    if (options_.metrics != nullptr) {
      options_.metrics->add("service.batches", 1);
      if (batch.size() > 1) {
        options_.metrics->add("service.batched_requests",
                              static_cast<std::int64_t>(batch.size()));
      }
      options_.metrics->set("service.in_flight",
                            static_cast<double>(batch.size()));
    }
    process_batch(std::move(batch), exec.get());
    if (options_.metrics != nullptr) {
      options_.metrics->set("service.in_flight", 0.0);
    }
  }
}

void SolveService::process_batch(std::vector<Pending> batch, Executor* exec) {
  const auto t_dequeue = std::chrono::steady_clock::now();
  TraceRecorder* const trace = options_.trace;
  Logger* const log = options_.log;

  // Requests whose deadline lapsed while queued are rejected, not solved.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (!deadline_expired(p, t_dequeue)) {
      live.push_back(std::move(p));
      continue;
    }
    SolveResponse r;
    r.id = p.request.id;
    r.rid = p.rid;
    r.status = "rejected";
    r.reason = "deadline";
    r.queue_us = us_between(p.submitted_at, t_dequeue);
    r.total_us = r.queue_us;
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected_deadline;
    }
    if (options_.metrics != nullptr) {
      options_.metrics->add("service.rejected_deadline", 1);
    }
    if (log != nullptr && log->enabled(LogLevel::Warn)) {
      JsonValue f = rid_fields(p.rid, p.request.id);
      f["reason"] = "deadline";
      f["queue_us"] = r.queue_us;
      log->warn("service.reject", f);
    }
    deliver(r);
    finish_one();
  }
  if (live.empty()) return;

  if (log != nullptr && log->enabled(LogLevel::Debug)) {
    JsonValue f = rid_fields(live.front().rid, live.front().request.id);
    f["batch_size"] = static_cast<std::int64_t>(live.size());
    f["batch_key"] = live.front().batch_key;
    log->debug("service.dequeue", f);
  }

  const auto fail_batch = [&](const std::string& reason) {
    const auto now = std::chrono::steady_clock::now();
    for (const Pending& p : live) {
      SolveResponse r;
      r.id = p.request.id;
      r.rid = p.rid;
      r.status = "error";
      r.reason = reason;
      r.queue_us = us_between(p.submitted_at, t_dequeue);
      r.total_us = us_between(p.submitted_at, now);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.errors;
      }
      if (options_.metrics != nullptr) {
        options_.metrics->add("service.errors", 1);
      }
      if (log != nullptr && log->enabled(LogLevel::Error)) {
        JsonValue f = rid_fields(p.rid, p.request.id);
        f["reason"] = reason;
        log->error("service.error", f);
      }
      deliver(r);
      finish_one();
    }
  };

  // Shared batch setup. Load: lease the operator's solve-ready state from
  // the pool, or load + partition + distribute it. Setup: acquire the factor
  // — from the RAM tier when resident, reloaded from the disk store on a RAM
  // miss, freshly built otherwise — and the preconditioner, which a leased
  // state already holds when the RAM tier returns the factor it was built
  // from. Everything downstream is shared by the whole batch, and the factor
  // bits are identical on every path, so the residual histories are too.
  const SolveRequest& lead = live.front().request;
  const std::string& batch_key = live.front().batch_key;
  // Only generated operators are pooled: they are a pure function of the
  // request, whereas a matrix file may change between requests.
  const bool poolable = lead.matrix_path.empty();
  std::unique_ptr<OperatorState> op;
  CacheTier tier = CacheTier::Miss;
  bool reused = false;
  double load_us = 0.0;
  double setup_us = 0.0;
  try {
    const auto t_load = std::chrono::steady_clock::now();
    if (poolable) op = lease_operator(batch_key);
    if (op == nullptr) op = load_operator(lead, exec);
    const auto t_setup = std::chrono::steady_clock::now();
    load_us = us_between(t_load, t_setup);

    if (op->fingerprint_hex.empty()) {
      // The streamed rank-local fingerprint equals fingerprint_of() of the
      // assembled operator, so generated operators share the FactorCache
      // and disk store keying with file/suite operators unchanged.
      const MatrixFingerprint fp = op->sys.matrix.rows() == 0
                                       ? fingerprint_rank_local(*op->a)
                                       : fingerprint_of(op->sys.matrix);
      op->fingerprint_hex = hash_hex(fp.content_hash);
      op->key = FactorCache::Key{
          fp, lead.method + "|" +
                  strformat("%.17g", static_cast<double>(lead.filter)) + "|" +
                  lead.filter_strategy + "|" + std::to_string(lead.ranks)};
    }
    std::shared_ptr<const CachedFactor> factor = cache_.get(op->key, &tier);
    if (options_.metrics != nullptr) {
      options_.metrics->add(tier == CacheTier::Ram    ? "service.cache_hits"
                            : tier == CacheTier::Disk ? "service.cache_disk_hits"
                                                      : "service.cache_misses",
                            1);
    }
    reused = tier == CacheTier::Ram && op->precond != nullptr &&
             factor == op->factor;
    if (!reused && factor != nullptr) {
      op->precond = std::make_unique<FactorizedPreconditioner>(
          DistCsr::distribute(factor->g, factor->layout),
          DistCsr::distribute(transpose(factor->g), factor->layout),
          lead.method + "(cached)");
      op->factor = std::move(factor);
    } else if (!reused) {
      FsaiOptions opts;
      opts.extension = extension_of(lead.method);
      opts.filter = lead.method == "fsai" ? value_t{0} : lead.filter;
      opts.filter_strategy = lead.filter_strategy == "static"
                                 ? FilterStrategy::Static
                                 : FilterStrategy::Dynamic;
      opts.exec = exec;
      opts.trace = trace;
      if (op->sys.matrix.rows() == 0) {
        // The FSAI setup is the one stage still built from assembled rows
        // (generated and pooled operators keep only the distributed copy).
        // A factor-cache hit (RAM or disk) skips this branch entirely, so
        // repeat traffic against a generated operator stays global-free.
        op->sys.matrix = op->a->to_global();
      }
      FsaiBuildResult build =
          build_fsai_preconditioner(op->sys.matrix, op->sys.layout, opts);
      const double build_seconds =
          us_between(t_setup, std::chrono::steady_clock::now()) * 1e-6;
      op->precond = std::make_unique<FactorizedPreconditioner>(
          std::move(build.g_dist), std::move(build.gt_dist), lead.method);
      op->factor = std::make_shared<CachedFactor>(CachedFactor{
          std::move(build.g), op->sys.layout, build_seconds});
      cache_.put(op->key, op->factor);
    }
    setup_us = us_between(t_setup, std::chrono::steady_clock::now());
    if (trace != nullptr) {
      trace->complete(("setup " + lead.id).c_str(), "service",
                      trace->now_us() - setup_us, setup_us,
                      rid_args(live.front().rid));
    }
    if (log != nullptr && log->enabled(LogLevel::Info)) {
      JsonValue f = rid_fields(live.front().rid, lead.id);
      f["cache"] = tier_string(tier);
      f["fingerprint"] = op->fingerprint_hex;
      f["setup_us"] = setup_us;
      f["batch_size"] = static_cast<std::int64_t>(live.size());
      log->info("service.setup", f);
    }
  } catch (const std::exception& e) {
    fail_batch(e.what());
    return;
  }
  if (reused) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.operator_reuses;
    }
    if (options_.metrics != nullptr) {
      options_.metrics->add("service.operator_reuses", 1);
    }
  }
  const PartitionedSystem& sys = op->sys;
  const index_t global_rows = sys.layout.global_size();
  bool all_ok = true;

  // Solve the batch's right-hand sides back-to-back against the shared
  // operator and factor. Each request still gets its own residual history,
  // bit-identical to a solo solve of the same request.
  for (const Pending& p : live) {
    const SolveRequest& req = p.request;
    SolveResponse r;
    r.id = req.id;
    r.rid = p.rid;
    r.queue_us = us_between(p.submitted_at, t_dequeue);
    r.cache = tier_string(tier);
    r.batch_size = static_cast<int>(live.size());
    r.fingerprint = op->fingerprint_hex;
    r.load_us = load_us;
    r.setup_us = setup_us;
    try {
      std::vector<value_t> b_global;
      if (req.rhs_path.empty()) {
        b_global = synthesize_rhs(req.rhs_seed, global_rows);
      } else {
        b_global = read_matrix_market_vector_file(req.rhs_path);
        FSAIC_REQUIRE(
            b_global.size() == static_cast<std::size_t>(global_rows),
            "right-hand side length " + std::to_string(b_global.size()) +
                " does not match matrix rows " + std::to_string(global_rows));
      }
      const DistVector b(sys.layout, permute_rhs(b_global, sys.perm));

      // Warm start: every converged solve is remembered under its
      // operator/solver/tolerance/RHS key, but a request only SEEDS x0 from
      // that cache when it opts in (`warm_start: true`) — convergence is
      // then anchored to the original cold solve's residual target instead
      // of the (already tiny) warm ||r_0||.
      DistVector x(sys.layout);
      double reference = 0.0;
      bool warm = false;
      std::string solution_key;
      if (options_.solution_cache_capacity > 0) {
        solution_key =
            p.batch_key + "|" + req.solver + "|" +
            strformat("%.17g", static_cast<double>(req.tol)) + "|" +
            std::to_string(req.max_iterations) + "|" +
            hash_hex(fingerprint_of_values(b_global));
      }
      if (req.warm_start && !solution_key.empty()) {
        if (auto cached = solution_get(solution_key)) {
          // Same operator + rank count => same partition, so the global
          // solution scatters back onto the layout unchanged.
          x = DistVector(sys.layout, permute_rhs(cached->x, sys.perm));
          reference = cached->reference_residual;
          warm = reference > 0.0;
        }
      }
      SolveOptions solve_opts{.rel_tol = req.tol,
                              .max_iterations = req.max_iterations,
                              .reference_residual =
                                  static_cast<value_t>(reference),
                              .track_residual_history = req.want_history,
                              .exec = exec};
      const auto t_solve = std::chrono::steady_clock::now();
      const SolveResult result =
          req.solver == "pipelined-cg"
              ? pcg_solve_pipelined(*op->a, b, x, *op->precond, solve_opts)
              : pcg_solve(*op->a, b, x, *op->precond, solve_opts);
      const auto t_done = std::chrono::steady_clock::now();
      if (!solution_key.empty() && result.converged) {
        // Remember the solution in global (pre-partition) numbering; the
        // reference stays the cold solve's ||r_0|| across refreshes.
        std::vector<value_t> x_global(
            static_cast<std::size_t>(sys.layout.global_size()));
        const auto x_part = x.to_global();
        for (std::size_t i = 0; i < x_global.size(); ++i) {
          x_global[i] = x_part[static_cast<std::size_t>(sys.perm[i])];
        }
        solution_put(solution_key,
                     CachedSolution{std::move(x_global),
                                    warm ? reference
                                         : static_cast<double>(
                                               result.initial_residual)});
      }
      r.status = "ok";
      r.converged = result.converged;
      r.iterations = result.iterations;
      r.initial_residual = static_cast<double>(result.initial_residual);
      r.final_residual = static_cast<double>(result.final_residual);
      r.warm_start = warm;
      r.solve_us = us_between(t_solve, t_done);
      r.total_us = us_between(p.submitted_at, t_done);
      if (req.want_history) {
        r.residuals.assign(result.residual_history.begin(),
                           result.residual_history.end());
      }
      record_service_us(p.batch_key,
                        setup_us / static_cast<double>(live.size()) +
                            r.solve_us);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.completed;
        if (warm) ++stats_.warm_starts;
      }
      if (options_.metrics != nullptr) {
        options_.metrics->add("service.completed", 1);
        if (warm) options_.metrics->add("service.warm_starts", 1);
        options_.metrics->observe("service.queue_us", r.queue_us);
        options_.metrics->observe("service.load_us", r.load_us);
        options_.metrics->observe("service.setup_us", r.setup_us);
        options_.metrics->observe("service.solve_us", r.solve_us);
      }
      if (trace != nullptr) {
        const double now_us = trace->now_us();
        trace->complete(("queue " + req.id).c_str(), "service",
                        now_us - r.total_us, r.queue_us, rid_args(p.rid));
        trace->complete(("solve " + req.id).c_str(), "service",
                        now_us - r.solve_us, r.solve_us, rid_args(p.rid));
      }
      if (log != nullptr && log->enabled(LogLevel::Info)) {
        JsonValue f = rid_fields(p.rid, req.id);
        f["converged"] = result.converged;
        f["iterations"] = result.iterations;
        f["cache"] = r.cache;
        if (warm) f["warm_start"] = true;
        f["queue_us"] = r.queue_us;
        f["load_us"] = r.load_us;
        f["setup_us"] = r.setup_us;
        f["solve_us"] = r.solve_us;
        f["total_us"] = r.total_us;
        log->info("service.solve", f);
      }
    } catch (const std::exception& e) {
      all_ok = false;
      r.status = "error";
      r.reason = e.what();
      r.total_us =
          us_between(p.submitted_at, std::chrono::steady_clock::now());
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.errors;
      }
      if (options_.metrics != nullptr) {
        options_.metrics->add("service.errors", 1);
      }
      if (log != nullptr && log->enabled(LogLevel::Error)) {
        JsonValue f = rid_fields(p.rid, req.id);
        f["reason"] = r.reason;
        log->error("service.error", f);
      }
    }
    deliver(r);
    finish_one();
  }
  // Pool the state only after a batch served from a RAM hit: the operator
  // is then known to repeat, so a stream of new operators retains nothing.
  // A batch whose solve threw may have left its halo mailboxes mid-exchange
  // and is not pooled.
  if (poolable && tier == CacheTier::Ram && all_ok) {
    return_operator(batch_key, std::move(op));
  }
}

void SolveService::deliver(const SolveResponse& response) {
  const std::lock_guard<std::mutex> lock(deliver_mutex_);
  on_response_(response);
}

void SolveService::finish_one() {
  {
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    ++answered_;
  }
  drained_.notify_all();
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return answered_ >= accepted_; });
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  out.cache = cache_.stats();
  return out;
}

ServiceStats serve_requests(const ServiceOptions& options, std::istream& in,
                            std::ostream& out) {
  std::mutex out_mutex;
  ServiceStats stats;
  std::int64_t rejected_parse = 0;
  {
    SolveService service(options, [&](const SolveResponse& r) {
      const std::lock_guard<std::mutex> lock(out_mutex);
      out << to_json(r).dump() << '\n';
      out.flush();
    });
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      try {
        service.submit(parse_request(JsonValue::parse(line)));
      } catch (const std::exception& e) {
        // A malformed line still yields exactly one response so replays
        // stay aligned with their request files.
        SolveResponse r;
        const JsonValue* id = nullptr;
        try {
          const JsonValue v = JsonValue::parse(line);
          id = v.find("id");
          if (id != nullptr && id->is_string()) r.id = id->as_string();
        } catch (const std::exception&) {
        }
        if (r.id.empty()) r.id = "line" + std::to_string(lineno);
        r.status = "error";
        r.reason = e.what();
        ++rejected_parse;
        if (options.metrics != nullptr) {
          options.metrics->add("service.rejected_parse", 1);
        }
        const std::lock_guard<std::mutex> lock(out_mutex);
        out << to_json(r).dump() << '\n';
        out.flush();
      }
    }
    service.drain();
    stats = service.stats();
  }
  stats.rejected_parse = rejected_parse;
  return stats;
}

int process_watch_directory(const ServiceOptions& options,
                            const std::string& dir, ServiceStats* accumulate) {
  namespace fs = std::filesystem;
  FSAIC_REQUIRE(fs::is_directory(dir), "not a directory: " + dir);
  int processed = 0;
  std::vector<fs::path> pending;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    const std::string name = path.filename().string();
    if (name.size() < 6 || name.substr(name.size() - 6) != ".jsonl") continue;
    if (name.size() >= 10 && name.substr(name.size() - 10) == ".out.jsonl") {
      continue;
    }
    fs::path out_path = path;
    out_path.replace_extension(".out.jsonl");
    if (fs::exists(out_path)) continue;  // already served
    pending.push_back(path);
  }
  std::sort(pending.begin(), pending.end());
  for (const fs::path& path : pending) {
    fs::path out_path = path;
    out_path.replace_extension(".out.jsonl");
    // Write to a temp name first so a crash mid-file never leaves a
    // half-written response file that would mark the input as served.
    const fs::path tmp_path = out_path.string() + ".tmp";
    std::ifstream in(path);
    FSAIC_REQUIRE(in.good(), "cannot open request file: " + path.string());
    {
      std::ofstream out(tmp_path);
      FSAIC_REQUIRE(out.good(),
                    "cannot open response file: " + tmp_path.string());
      const ServiceStats stats = serve_requests(options, in, out);
      if (accumulate != nullptr) accumulate->merge(stats);
    }
    fs::rename(tmp_path, out_path);
    ++processed;
  }
  return processed;
}

}  // namespace fsaic
