// Serving throughput benchmark: replay a synthetic mixed workload against
// the in-process SolveService and measure what the resident server
// sustains. The workload mixes operators (weighted), right-hand-side seeds
// and deadlines; requests arrive open-loop on a Poisson schedule at a
// target rate for a target duration. The run emits one JSON document
// (BENCH_serve.json) with requests/sec, per-stage latency quantiles
// (queue / setup / solve / total), the cache hit rate, the batch-size
// distribution and the rejection counts — the artifact tools/bench_diff.py
// and the serve-throughput-smoke CI job consume.
//
// Determinism: the whole request sequence (ids, operator mix, RHS seeds,
// deadline flags, arrival offsets) is drawn from one seeded xoshiro256**
// stream *before* the clock starts, the queue capacity exceeds the request
// count (so "queue_full" cannot fire), and the only deadlines issued are
// deadline_ms = 0 — rejected deterministically at submission. Two runs with
// the same seed therefore replay the identical workload with identical
// admission outcomes and bit-identical residual histories, regardless of
// worker count or wall-clock jitter; the run digests prove it.
//
// Configuration (environment):
//   FSAIC_SERVE_BENCH_SECONDS        target replay duration   (default 2.0)
//   FSAIC_SERVE_BENCH_RATE           arrival rate, req/s      (default 8.0)
//   FSAIC_SERVE_BENCH_SEED           workload seed            (default 2022)
//   FSAIC_SERVE_BENCH_WORKERS        service worker threads   (default 2)
//   FSAIC_SERVE_BENCH_MIX            operator:weight list
//                       (default "thermal2:3,ecology2:2,parabolic_fem:1")
//   FSAIC_SERVE_BENCH_DEADLINE_PCT   % of requests with deadline_ms = 0
//                                    (default 5)
//   FSAIC_SERVE_BENCH_CACHE          factor-cache capacity    (default 8)
//   FSAIC_SERVE_BENCH_STORE          disk-tier store dir (default none; set
//                                    to exercise the warm-restart path —
//                                    disk reloads count as cache.disk_hits)
//   FSAIC_SERVE_BENCH_OUT            output path (default BENCH_serve.json)
//   FSAIC_REPORT                     also append a one-line JSONL summary
//
// Priorities are drawn from a second seeded stream so the workload digest
// (id, operator, RHS seed, deadline flag) is unchanged from artifacts
// recorded before priority lanes existed — bench_diff's enforced gates
// stay comparable against the committed baseline.
//
// BENCH_serve.json schema: see docs/service.md ("Serving performance").
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace fsaic;

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::stod(v);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

struct MixEntry {
  std::string op;
  double weight;
};

/// Parse "thermal2:3,ecology2:2" into weighted entries.
std::vector<MixEntry> parse_mix(const std::string& spec) {
  std::vector<MixEntry> mix;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t colon = item.find(':');
    FSAIC_REQUIRE(colon != std::string::npos && colon > 0,
                  "bad FSAIC_SERVE_BENCH_MIX entry: " + item);
    mix.push_back({item.substr(0, colon), std::stod(item.substr(colon + 1))});
    FSAIC_REQUIRE(mix.back().weight > 0.0,
                  "mix weight must be positive: " + item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  FSAIC_REQUIRE(!mix.empty(), "empty FSAIC_SERVE_BENCH_MIX");
  return mix;
}

/// FNV-1a 64-bit — the digests that prove two runs replayed the same
/// workload with the same outcomes and bit-identical residuals.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    const char nul = '\0';
    bytes(&nul, 1);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::string hex() const {
    return strformat("%016llx", static_cast<unsigned long long>(h));
  }
};

/// Exact nearest-rank quantile of an ascending-sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * n)));
  return sorted[static_cast<std::size_t>(rank - 1)];
}

JsonValue stage_quantiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  JsonValue v = JsonValue::object();
  v["count"] = static_cast<std::int64_t>(values.size());
  v["mean_us"] = values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  v["p50_us"] = quantile_sorted(values, 0.50);
  v["p95_us"] = quantile_sorted(values, 0.95);
  v["p99_us"] = quantile_sorted(values, 0.99);
  v["max_us"] = values.empty() ? 0.0 : values.back();
  return v;
}

}  // namespace

int main() {
  const double seconds = env_double("FSAIC_SERVE_BENCH_SECONDS", 2.0);
  const double rate = env_double("FSAIC_SERVE_BENCH_RATE", 8.0);
  const auto seed =
      static_cast<std::uint64_t>(env_double("FSAIC_SERVE_BENCH_SEED", 2022));
  const int workers =
      static_cast<int>(env_double("FSAIC_SERVE_BENCH_WORKERS", 2));
  const double deadline_pct =
      env_double("FSAIC_SERVE_BENCH_DEADLINE_PCT", 5.0);
  const std::string mix_spec = env_string(
      "FSAIC_SERVE_BENCH_MIX", "thermal2:3,ecology2:2,parabolic_fem:1");
  const auto cache_capacity =
      static_cast<std::size_t>(env_double("FSAIC_SERVE_BENCH_CACHE", 8));
  const std::string store_dir = env_string("FSAIC_SERVE_BENCH_STORE", "");
  const std::string out_path =
      env_string("FSAIC_SERVE_BENCH_OUT", "BENCH_serve.json");
  const std::vector<MixEntry> mix = parse_mix(mix_spec);

  std::cout << "==== Solve service — sustained-throughput replay ====\n"
            << "mix " << mix_spec << ", " << rate << " req/s for " << seconds
            << " s, " << workers << " worker(s), seed " << seed << "\n\n";

  // Draw the entire workload up front from the seeded stream: everything
  // that defines a request is fixed before the clock starts.
  const auto n_requests = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(seconds * rate)));
  double mix_total = 0.0;
  for (const auto& m : mix) mix_total += m.weight;

  Rng rng(seed);
  // Separate stream for the priority draw: it must not perturb the workload
  // stream, or the digest would diverge from pre-priority baselines.
  Rng prio_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<SolveRequest> workload;
  std::vector<double> arrival_s;  // offset of each submission from t0
  workload.reserve(static_cast<std::size_t>(n_requests));
  double t_arrive = 0.0;
  Fnv1a workload_digest;
  std::map<std::string, std::int64_t> mix_counts;
  for (std::int64_t i = 0; i < n_requests; ++i) {
    SolveRequest req;
    // A fresh string: assigning "r" into req.id trips GCC 12's false
    // -Wrestrict overlap report.
    std::string id = "r";
    id += std::to_string(i + 1);
    req.id = std::move(id);
    double pick = rng.next_uniform() * mix_total;
    req.generate = mix.back().op;
    for (const auto& m : mix) {
      if (pick < m.weight) {
        req.generate = m.op;
        break;
      }
      pick -= m.weight;
    }
    req.rhs_seed = 1000 + static_cast<std::uint64_t>(rng.next_index(50));
    // Only deadline_ms = 0 is ever issued: it rejects at submission time,
    // independent of scheduling, so admission outcomes stay reproducible.
    const bool expired = rng.next_uniform() * 100.0 < deadline_pct;
    if (expired) req.deadline_ms = 0.0;
    // Priority shuffles scheduling order only; per-request residuals are a
    // function of (operator, RHS) alone, so the residual digest is immune.
    req.priority = static_cast<int>(prio_rng.next_index(3));
    req.want_history = true;  // residual digests need the full history
    t_arrive += -std::log(1.0 - rng.next_uniform()) / rate;
    arrival_s.push_back(t_arrive);
    workload_digest.str(req.id);
    workload_digest.str(req.generate);
    workload_digest.u64(req.rhs_seed);
    workload_digest.u64(expired ? 1 : 0);
    ++mix_counts[req.generate];
    workload.push_back(std::move(req));
  }

  // Collect every response; rid orders them by submission for the digests.
  std::mutex resp_mutex;
  std::vector<SolveResponse> responses;
  responses.reserve(workload.size());

  ServiceOptions opts;
  opts.workers = workers;
  // Capacity above the request count: "queue_full" would make admission
  // depend on drain speed, breaking run-to-run reproducibility.
  opts.queue_capacity = static_cast<std::size_t>(n_requests) + 1;
  opts.cache_capacity = cache_capacity;
  opts.store_dir = store_dir;

  const auto t0 = std::chrono::steady_clock::now();
  double wall_s = 0.0;
  {
    SolveService service(opts, [&](const SolveResponse& r) {
      const std::lock_guard<std::mutex> lock(resp_mutex);
      responses.push_back(r);
    });
    for (std::size_t i = 0; i < workload.size(); ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration<double>(arrival_s[i]));
      service.submit(std::move(workload[i]));
    }
    service.drain();
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  }

  // Post-process by rid (submission order) so digests are schedule-free.
  std::sort(responses.begin(), responses.end(),
            [](const SolveResponse& a, const SolveResponse& b) {
              return a.rid < b.rid;
            });
  FSAIC_REQUIRE(responses.size() == workload.size(),
                "response count does not match request count");

  Fnv1a admission_digest;
  Fnv1a residual_digest;
  std::int64_t completed = 0;
  std::int64_t rejected_deadline = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_predicted = 0;
  std::int64_t errors = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_disk_hits = 0;
  std::int64_t cache_misses = 0;
  std::map<int, std::int64_t> batch_sizes;
  std::vector<double> queue_us;
  std::vector<double> setup_us;
  std::vector<double> solve_us;
  std::vector<double> total_us;
  for (const SolveResponse& r : responses) {
    admission_digest.str(r.id);
    admission_digest.str(r.status);
    admission_digest.str(r.reason);
    if (r.status == "rejected") {
      if (r.reason == "deadline") ++rejected_deadline;
      if (r.reason == "deadline_predicted") ++rejected_predicted;
      if (r.reason == "queue_full") ++rejected_queue_full;
      continue;
    }
    if (r.status == "error") {
      ++errors;
      continue;
    }
    ++completed;
    if (r.cache == "hit") ++cache_hits;
    if (r.cache == "disk") ++cache_disk_hits;
    if (r.cache == "miss") ++cache_misses;
    ++batch_sizes[r.batch_size];
    queue_us.push_back(r.queue_us);
    setup_us.push_back(r.setup_us);
    solve_us.push_back(r.solve_us);
    total_us.push_back(r.total_us);
    residual_digest.str(r.id);
    residual_digest.u64(static_cast<std::uint64_t>(r.iterations));
    residual_digest.f64(r.final_residual);
    for (double res : r.residuals) residual_digest.f64(res);
  }

  JsonValue doc = JsonValue::object();
  doc["schema"] = "fsaic.bench.serve/v1";
  doc["bench"] = "serve_throughput";
  JsonValue config = JsonValue::object();
  config["seconds"] = seconds;
  config["rate_rps"] = rate;
  config["seed"] = static_cast<std::int64_t>(seed);
  config["workers"] = workers;
  config["mix"] = mix_spec;
  config["deadline_pct"] = deadline_pct;
  config["cache_capacity"] = static_cast<std::int64_t>(cache_capacity);
  if (!store_dir.empty()) config["store"] = store_dir;
  doc["config"] = std::move(config);
  JsonValue reqs = JsonValue::object();
  reqs["submitted"] = n_requests;
  reqs["admitted"] = n_requests - rejected_deadline - rejected_queue_full -
                     rejected_predicted;
  reqs["completed"] = completed;
  reqs["errors"] = errors;
  reqs["rejected_deadline"] = rejected_deadline;
  reqs["rejected_predicted"] = rejected_predicted;
  reqs["rejected_queue_full"] = rejected_queue_full;
  doc["requests"] = std::move(reqs);
  doc["wall_seconds"] = wall_s;
  doc["throughput_rps"] = static_cast<double>(completed) / wall_s;
  JsonValue latency = JsonValue::object();
  latency["queue"] = stage_quantiles(std::move(queue_us));
  latency["setup"] = stage_quantiles(std::move(setup_us));
  latency["solve"] = stage_quantiles(std::move(solve_us));
  latency["total"] = stage_quantiles(std::move(total_us));
  doc["latency"] = std::move(latency);
  JsonValue cache = JsonValue::object();
  cache["hits"] = cache_hits;
  cache["disk_hits"] = cache_disk_hits;
  cache["misses"] = cache_misses;
  cache["hit_rate"] =
      completed == 0 ? 0.0
                     : static_cast<double>(cache_hits) /
                           static_cast<double>(cache_hits + cache_disk_hits +
                                               cache_misses);
  doc["cache"] = std::move(cache);
  JsonValue batches = JsonValue::object();
  for (const auto& [size, count] : batch_sizes) {
    batches[std::to_string(size)] = count;
  }
  doc["batch_size_counts"] = std::move(batches);
  JsonValue mixes = JsonValue::object();
  for (const auto& [op, count] : mix_counts) mixes[op] = count;
  doc["operator_counts"] = std::move(mixes);
  JsonValue digests = JsonValue::object();
  digests["workload"] = workload_digest.hex();
  digests["admission"] = admission_digest.hex();
  digests["residuals"] = residual_digest.hex();
  doc["digests"] = std::move(digests);

  atomic_write_file(out_path, doc.dump() + "\n");

  std::cout << strformat(
      "replayed %lld requests in %.2f s: %.2f req/s sustained\n",
      static_cast<long long>(n_requests), wall_s,
      static_cast<double>(completed) / wall_s);
  std::cout << strformat(
      "  total latency p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
      doc["latency"]["total"]["p50_us"].as_double() / 1e3,
      doc["latency"]["total"]["p95_us"].as_double() / 1e3,
      doc["latency"]["total"]["p99_us"].as_double() / 1e3);
  std::cout << strformat(
      "  cache: %lld hits / %lld disk / %lld misses (hit rate %.2f); "
      "rejected %lld\n",
      static_cast<long long>(cache_hits),
      static_cast<long long>(cache_disk_hits),
      static_cast<long long>(cache_misses),
      doc["cache"]["hit_rate"].as_double(),
      static_cast<long long>(rejected_deadline + rejected_predicted +
                             rejected_queue_full));
  std::cout << "  digests: workload " << workload_digest.hex()
            << ", admission " << admission_digest.hex() << ", residuals "
            << residual_digest.hex() << "\n";
  std::cout << "bench artifact -> " << out_path << "\n";

  if (const char* rp = std::getenv("FSAIC_REPORT");
      rp != nullptr && *rp != '\0') {
    RunReportWriter report{std::string(rp)};
    JsonValue rec = JsonValue::object();
    rec["bench"] = "serve_throughput";
    rec["throughput_rps"] = doc["throughput_rps"].as_double();
    rec["p99_total_us"] = doc["latency"]["total"]["p99_us"].as_double();
    rec["cache_hit_rate"] = doc["cache"]["hit_rate"].as_double();
    rec["digest_workload"] = workload_digest.hex();
    rec["digest_admission"] = admission_digest.hex();
    rec["digest_residuals"] = residual_digest.hex();
    report.write(rec);
  }

  // The replay itself is the acceptance check: every request answered, no
  // solver errors, and per-request cache accounting adds up.
  if (errors != 0 ||
      completed + rejected_deadline + rejected_predicted +
              rejected_queue_full !=
          n_requests ||
      cache_hits + cache_disk_hits + cache_misses != completed) {
    std::cout << "FAILED: inconsistent replay accounting\n";
    return 1;
  }
  return 0;
}
