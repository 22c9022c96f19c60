#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "matgen/generators.hpp"
#include "obs/report.hpp"
#include "sparse/mm_io.hpp"

namespace fsaic {
namespace {

namespace fs = std::filesystem;

/// prefix followed by decimal i, built by appending: GCC 12 misreports the
/// `numbered("r", i)` operator+ as an overlapping memcpy (-Wrestrict).
std::string numbered(const char* prefix, int i) {
  std::string id = prefix;
  id += std::to_string(i);
  return id;
}

// ------------------------------------------------------------- protocol --

TEST(ProtocolTest, RequestRoundTripsThroughJson) {
  SolveRequest req;
  req.id = "r42";
  req.matrix_path = "m.mtx";
  req.method = "fsaie";
  req.filter = 0.05;
  req.filter_strategy = "static";
  req.ranks = 4;
  req.solver = "pipelined-cg";
  req.tol = 1e-6;
  req.max_iterations = 500;
  req.rhs_path = "b.mtx";
  req.rhs_seed = 7;
  req.deadline_ms = 250.0;
  req.priority = 3;
  req.warm_start = true;
  req.want_history = true;

  const SolveRequest back = parse_request(to_json(req));
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.matrix_path, req.matrix_path);
  EXPECT_EQ(back.method, req.method);
  EXPECT_EQ(back.filter, req.filter);
  EXPECT_EQ(back.filter_strategy, req.filter_strategy);
  EXPECT_EQ(back.ranks, req.ranks);
  EXPECT_EQ(back.solver, req.solver);
  EXPECT_EQ(back.tol, req.tol);
  EXPECT_EQ(back.max_iterations, req.max_iterations);
  EXPECT_EQ(back.rhs_path, req.rhs_path);
  EXPECT_EQ(back.rhs_seed, req.rhs_seed);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.warm_start, req.warm_start);
  EXPECT_EQ(back.want_history, req.want_history);
}

TEST(ProtocolTest, RejectsInvalidRequests) {
  const auto parse = [](const std::string& json) {
    return parse_request(JsonValue::parse(json));
  };
  EXPECT_THROW(parse(R"({"matrix":"m.mtx"})"), Error) << "missing id";
  EXPECT_THROW(parse(R"({"id":"a"})"), Error) << "no matrix source";
  EXPECT_THROW(parse(R"({"id":"a","matrix":"m","generate":"g"})"), Error)
      << "both matrix sources";
  EXPECT_THROW(parse(R"({"id":"a","matrix":"m","method":"schwarz"})"), Error)
      << "unsupported method";
  EXPECT_THROW(parse(R"({"id":"a","matrix":"m","solver":"gmres"})"), Error)
      << "unsupported solver";
  EXPECT_THROW(parse(R"({"id":"a","matrix":"m","ranks":0})"), Error);
  EXPECT_THROW(parse(R"({"id":"a","matrix":"m","tol":-1.0})"), Error);
}

TEST(ProtocolTest, ValidatesWorkloadSpecsAtParseTime) {
  const auto parse = [](const std::string& json) {
    return parse_request(JsonValue::parse(json));
  };
  // parse_request is the one intake shared by --requests, stdin, and
  // watch-dir mode, so a bad generator spec is rejected identically
  // everywhere instead of failing inside a worker.
  EXPECT_THROW(parse(R"({"id":"a","generate":"stencil3d:nx=0"})"), Error)
      << "non-positive dimension";
  EXPECT_THROW(parse(R"({"id":"a","generate":"stencil3d:bogus=1"})"), Error)
      << "unknown key";
  EXPECT_THROW(parse(R"({"id":"a","generate":"hexmesh:n=100"})"), Error)
      << "unknown family";
  EXPECT_THROW(
      parse(
          R"({"id":"a","generate":"stencil2d:nx=10,ny=10,rows_per_rank=50"})"),
      Error)
      << "conflicting sizing (ny is the grown dimension)";
  const SolveRequest ok =
      parse(R"({"id":"a","generate":"stencil3d:nx=8,ny=8,nz=8","ranks":4})");
  EXPECT_EQ(ok.generate, "stencil3d:nx=8,ny=8,nz=8");
  EXPECT_TRUE(ok.matrix_path.empty());
}

TEST(ProtocolTest, BatchKeyIgnoresSolveOnlyFields) {
  SolveRequest a;
  a.id = "a";
  a.matrix_path = "m.mtx";
  SolveRequest b = a;
  b.id = "b";
  b.rhs_seed = 99;
  b.tol = 1e-4;
  b.want_history = true;
  EXPECT_EQ(a.batch_key(), b.batch_key());
  b.filter = 0.2;
  EXPECT_NE(a.batch_key(), b.batch_key());
}

// -------------------------------------------------------------- service --

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fsaic_service_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    matrix_path_ = (dir_ / "poisson.mtx").string();
    write_matrix_market_file(matrix_path_, poisson2d(12, 12));
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] SolveRequest request(const std::string& id) const {
    SolveRequest req;
    req.id = id;
    req.matrix_path = matrix_path_;
    req.ranks = 4;
    req.want_history = true;
    return req;
  }

  fs::path dir_;
  std::string matrix_path_;
};

/// Collects responses by id (handler calls are serialized by the service).
struct Collector {
  std::map<std::string, SolveResponse> by_id;
  SolveService::ResponseHandler handler() {
    return [this](const SolveResponse& r) { by_id[r.id] = r; };
  }
};

TEST_F(ServiceTest, SolvesARequestAndReportsMiss) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    EXPECT_TRUE(service.submit(request("r1")));
    service.drain();
    EXPECT_EQ(service.stats().completed, 1);
  }
  ASSERT_EQ(col.by_id.size(), 1u);
  const SolveResponse& r = col.by_id.at("r1");
  EXPECT_EQ(r.status, "ok");
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0);
  EXPECT_EQ(r.cache, "miss");
  EXPECT_EQ(r.batch_size, 1);
  EXPECT_FALSE(r.fingerprint.empty());
  EXPECT_EQ(r.residuals.size(), static_cast<std::size_t>(r.iterations) + 1)
      << "history = initial residual + one entry per iteration";
}

TEST_F(ServiceTest, SecondSolveHitsTheCacheWithIdenticalResults) {
  Collector col;
  {
    SolveService service({.workers = 1, .cache_capacity = 4}, col.handler());
    EXPECT_TRUE(service.submit(request("cold")));
    service.drain();
    EXPECT_TRUE(service.submit(request("warm")));
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, 1);
    EXPECT_EQ(stats.cache.hits, 1);
  }
  const SolveResponse& cold = col.by_id.at("cold");
  const SolveResponse& warm = col.by_id.at("warm");
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(cold.iterations, warm.iterations);
  ASSERT_EQ(cold.residuals.size(), warm.residuals.size());
  for (std::size_t k = 0; k < cold.residuals.size(); ++k) {
    EXPECT_EQ(cold.residuals[k], warm.residuals[k])
        << "cached-factor solve must be bit-identical at iteration " << k;
  }
}

TEST_F(ServiceTest, ZeroDeadlineIsRejectedAtAdmission) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    SolveRequest req = request("late");
    req.deadline_ms = 0.0;
    EXPECT_FALSE(service.submit(req));
    service.drain();
    EXPECT_EQ(service.stats().rejected_deadline, 1);
    EXPECT_EQ(service.stats().completed, 0);
  }
  const SolveResponse& r = col.by_id.at("late");
  EXPECT_EQ(r.status, "rejected");
  EXPECT_EQ(r.reason, "deadline");
}

TEST_F(ServiceTest, FullQueueIsRejectedWithReason) {
  Collector col;
  {
    SolveService service({.workers = 1, .queue_capacity = 2}, col.handler());
    // Occupy the single worker, then fill the two queue slots; the next
    // submission must bounce.
    EXPECT_TRUE(service.submit(request("busy")));
    while (service.stats().batches < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(service.submit(request("q1")));
    EXPECT_TRUE(service.submit(request("q2")));
    EXPECT_FALSE(service.submit(request("overflow")));
    service.drain();
    EXPECT_EQ(service.stats().rejected_queue_full, 1);
  }
  EXPECT_EQ(col.by_id.at("overflow").status, "rejected");
  EXPECT_EQ(col.by_id.at("overflow").reason, "queue_full");
  EXPECT_EQ(col.by_id.at("q1").status, "ok");
  EXPECT_EQ(col.by_id.at("q2").status, "ok");
}

TEST_F(ServiceTest, QueuedSameOperatorRequestsBatch) {
  Collector col;
  {
    SolveService service({.workers = 1, .cache_capacity = 4}, col.handler());
    // Park the worker on a first request, then queue three same-key
    // requests; the worker must coalesce them into one batch.
    EXPECT_TRUE(service.submit(request("head")));
    while (service.stats().batches < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SolveRequest a = request("b1");
    SolveRequest b = request("b2");
    b.rhs_seed = 99;  // different RHS, same operator -> same batch
    SolveRequest c = request("b3");
    c.rhs_seed = 123;
    EXPECT_TRUE(service.submit(a));
    EXPECT_TRUE(service.submit(b));
    EXPECT_TRUE(service.submit(c));
    service.drain();
    EXPECT_EQ(service.stats().max_batch_size, 3);
  }
  EXPECT_EQ(col.by_id.at("b1").batch_size, 3);
  EXPECT_EQ(col.by_id.at("b2").batch_size, 3);
  EXPECT_EQ(col.by_id.at("b3").batch_size, 3);
  EXPECT_EQ(col.by_id.at("b1").cache, "hit") << "head built the factor";
  // Different seeds genuinely produce different solves.
  EXPECT_NE(col.by_id.at("b1").residuals.back(),
            col.by_id.at("b2").residuals.back());
}

TEST_F(ServiceTest, BatchedResultsMatchSoloResults) {
  // The same three requests, once forced through a batch (1 worker, queued
  // behind a head request) and once solved one-by-one with batching off,
  // must produce bit-identical residual histories.
  Collector batched;
  {
    SolveService service({.workers = 1}, batched.handler());
    service.submit(request("head"));
    while (service.stats().batches < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SolveRequest b = request("b");
    b.rhs_seed = 99;
    service.submit(request("a"));
    service.submit(b);
    service.drain();
  }
  Collector solo;
  {
    SolveService service({.workers = 1, .batching = false}, solo.handler());
    SolveRequest b = request("b");
    b.rhs_seed = 99;
    service.submit(request("a"));
    service.submit(b);
    service.drain();
  }
  for (const std::string id : {"a", "b"}) {
    const auto& x = batched.by_id.at(id);
    const auto& y = solo.by_id.at(id);
    EXPECT_EQ(x.iterations, y.iterations) << id;
    ASSERT_EQ(x.residuals.size(), y.residuals.size()) << id;
    for (std::size_t k = 0; k < x.residuals.size(); ++k) {
      EXPECT_EQ(x.residuals[k], y.residuals[k]) << id << " iteration " << k;
    }
  }
}

TEST_F(ServiceTest, ErrorResponsesForBadInputs) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    SolveRequest missing = request("missing");
    missing.matrix_path = (dir_ / "nope.mtx").string();
    service.submit(missing);

    SolveRequest badrhs = request("badrhs");
    const std::string rhs_path = (dir_ / "short_rhs.mtx").string();
    const std::vector<value_t> too_short(7, 1.0);
    write_matrix_market_vector_file(rhs_path, too_short);
    badrhs.rhs_path = rhs_path;
    service.submit(badrhs);
    service.drain();
    EXPECT_EQ(service.stats().errors, 2);
  }
  EXPECT_EQ(col.by_id.at("missing").status, "error");
  EXPECT_EQ(col.by_id.at("badrhs").status, "error");
  EXPECT_NE(col.by_id.at("badrhs").reason.find("does not match matrix rows"),
            std::string::npos)
      << "got: " << col.by_id.at("badrhs").reason;
}

TEST_F(ServiceTest, FileRhsSolvesAndMatchesSeededRhs) {
  // Writing the synthesized RHS to a file and solving --rhs-style must give
  // the exact same history as the seeded path that generated it.
  Rng rng(2022);
  std::vector<value_t> b(static_cast<std::size_t>(12 * 12));
  for (auto& v : b) v = rng.next_uniform(-1.0, 1.0);
  const std::string rhs_path = (dir_ / "rhs.mtx").string();
  write_matrix_market_vector_file(rhs_path, b);

  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    SolveRequest from_file = request("file");
    from_file.rhs_path = rhs_path;
    SolveRequest seeded = request("seed");  // rhs_seed defaults to 2022
    service.submit(from_file);
    service.submit(seeded);
    service.drain();
  }
  const auto& file = col.by_id.at("file");
  const auto& seed = col.by_id.at("seed");
  ASSERT_EQ(file.status, "ok");
  ASSERT_EQ(file.residuals.size(), seed.residuals.size());
  for (std::size_t k = 0; k < file.residuals.size(); ++k) {
    EXPECT_EQ(file.residuals[k], seed.residuals[k]);
  }
}

TEST_F(ServiceTest, MetricsAreWired) {
  MetricsRegistry metrics;
  Collector col;
  {
    SolveService service({.workers = 1, .metrics = &metrics}, col.handler());
    service.submit(request("m1"));
    service.drain();
    service.submit(request("m2"));
    service.drain();
  }
  EXPECT_EQ(metrics.counter("service.submitted"), 2);
  EXPECT_EQ(metrics.counter("service.completed"), 2);
  EXPECT_EQ(metrics.counter("service.cache_misses"), 1);
  EXPECT_EQ(metrics.counter("service.cache_hits"), 1);
  EXPECT_EQ(metrics.histogram("service.solve_us").count, 2);
  EXPECT_EQ(metrics.histogram("service.queue_us").count, 2);
  EXPECT_EQ(metrics.histogram("service.load_us").count, 2);
  EXPECT_GT(metrics.histogram("service.setup_us").quantile(0.5), 0.0);
}

TEST_F(ServiceTest, TraceGetsPerRequestSlices) {
  TraceRecorder trace;
  Collector col;
  {
    SolveService service({.workers = 1, .trace = &trace}, col.handler());
    service.submit(request("t1"));
    service.drain();
  }
  bool saw_queue = false, saw_setup = false, saw_solve = false;
  for (const auto& e : trace.events()) {
    if (e.name == "queue t1") saw_queue = true;
    if (e.name == "setup t1") saw_setup = true;
    if (e.name == "solve t1") saw_solve = true;
  }
  EXPECT_TRUE(saw_queue && saw_setup && saw_solve);
}

TEST_F(ServiceTest, RidsAreMintedInSubmissionOrderAcrossOutcomes) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    SolveRequest late = request("late");
    late.deadline_ms = 0.0;  // rejected, but still consumes a rid
    service.submit(request("first"));
    service.submit(late);
    service.submit(request("third"));
    service.drain();
  }
  EXPECT_EQ(col.by_id.at("first").rid, 1);
  EXPECT_EQ(col.by_id.at("late").rid, 2);
  EXPECT_EQ(col.by_id.at("third").rid, 3);
  // The rid rides in the response JSON for log<->response correlation.
  const JsonValue v = to_json(col.by_id.at("third"));
  EXPECT_EQ(v.at("rid").as_int(), 3);
  // Unserviced responses (rid 0) omit the key.
  SolveResponse unserviced;
  unserviced.id = "parse-error";
  unserviced.status = "error";
  EXPECT_EQ(to_json(unserviced).find("rid"), nullptr);
}

TEST_F(ServiceTest, StructuredLogCoversTheRequestLifecycle) {
  std::ostringstream log_out;
  Logger log(log_out, LogLevel::Debug);
  Collector col;
  {
    SolveService service({.workers = 1, .log = &log}, col.handler());
    SolveRequest late = request("late");
    late.deadline_ms = 0.0;
    service.submit(request("ok1"));
    service.submit(late);
    service.drain();
  }
  std::istringstream lines(log_out.str());
  std::map<std::string, JsonValue> by_event;
  int n_lines = 0;
  for (const JsonValue& v : read_jsonl(lines)) {
    by_event[v.at("event").as_string()] = v;
    ++n_lines;
  }
  EXPECT_EQ(log.lines_written(), n_lines);
  // admit -> dequeue -> setup -> solve for the solved request...
  for (const std::string event :
       {"service.admit", "service.dequeue", "service.setup", "service.solve"}) {
    ASSERT_TRUE(by_event.count(event)) << event << " missing";
    EXPECT_EQ(by_event.at(event).at("rid").as_int(), 1) << event;
  }
  EXPECT_EQ(by_event.at("service.admit").at("id").as_string(), "ok1");
  EXPECT_EQ(by_event.at("service.setup").at("cache").as_string(), "miss");
  EXPECT_GT(by_event.at("service.solve").at("iterations").as_int(), 0);
  // ...and a reject event carrying the rejected request's rid.
  ASSERT_TRUE(by_event.count("service.reject"));
  EXPECT_EQ(by_event.at("service.reject").at("rid").as_int(), 2);
  EXPECT_EQ(by_event.at("service.reject").at("reason").as_string(),
            "deadline");
}

TEST_F(ServiceTest, TraceSlicesCarryRidArgs) {
  TraceRecorder trace;
  Collector col;
  {
    SolveService service({.workers = 1, .trace = &trace}, col.handler());
    service.submit(request("t1"));
    service.drain();
  }
  const std::int64_t rid = col.by_id.at("t1").rid;
  ASSERT_EQ(rid, 1);
  int tagged = 0;
  for (const auto& e : trace.events()) {
    if (e.name != "queue t1" && e.name != "setup t1" && e.name != "solve t1") {
      continue;
    }
    EXPECT_EQ(JsonValue::parse(e.args).at("rid").as_int(), rid) << e.name;
    ++tagged;
  }
  EXPECT_EQ(tagged, 3) << "queue/setup/solve slices all tagged with the rid";
  // The rendered trace JSON embeds the args objects verbatim.
  std::ostringstream json;
  trace.write_json(json);
  EXPECT_NE(json.str().find("\"args\":{\"rid\":1}"), std::string::npos);
}

// ------------------------------------------------- disk tier / restarts --

TEST_F(ServiceTest, RestartedServiceReloadsFactorsFromTheStore) {
  const std::string store = (dir_ / "factor_store").string();
  Collector first_run;
  {
    SolveService service({.workers = 1, .store_dir = store},
                         first_run.handler());
    service.submit(request("cold"));
    service.drain();
    EXPECT_EQ(service.stats().cache.spills, 1)
        << "the built factor is persisted write-through";
  }  // service torn down: RAM tier gone, store survives

  Collector second_run;
  {
    SolveService service({.workers = 1, .store_dir = store},
                         second_run.handler());
    service.submit(request("warm"));
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.disk_hits, 1);
    EXPECT_EQ(stats.cache.misses, 0) << "restart must not rebuild";
  }
  const SolveResponse& cold = first_run.by_id.at("cold");
  const SolveResponse& warm = second_run.by_id.at("warm");
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(warm.cache, "disk");
  EXPECT_EQ(cold.iterations, warm.iterations);
  ASSERT_EQ(cold.residuals.size(), warm.residuals.size());
  for (std::size_t k = 0; k < cold.residuals.size(); ++k) {
    EXPECT_EQ(cold.residuals[k], warm.residuals[k])
        << "disk-reloaded factor must solve bit-identically at " << k;
  }
}

TEST_F(ServiceTest, AllThreeCacheTiersSolveBitIdentically) {
  const std::string store = (dir_ / "tier_store").string();
  Collector col;
  {
    SolveService service({.workers = 1, .store_dir = store}, col.handler());
    service.submit(request("cold"));  // miss: builds + persists
    service.drain();
    service.submit(request("ram"));  // RAM hit
    service.drain();
  }
  {
    SolveService service({.workers = 1, .store_dir = store}, col.handler());
    service.submit(request("disk"));  // fresh process: disk reload
    service.drain();
  }
  EXPECT_EQ(col.by_id.at("cold").cache, "miss");
  EXPECT_EQ(col.by_id.at("ram").cache, "hit");
  EXPECT_EQ(col.by_id.at("disk").cache, "disk");
  const auto& ref = col.by_id.at("cold").residuals;
  ASSERT_FALSE(ref.empty());
  for (const std::string id : {"ram", "disk"}) {
    const auto& got = col.by_id.at(id).residuals;
    ASSERT_EQ(got.size(), ref.size()) << id;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(got[k], ref[k]) << id << " iteration " << k;
    }
  }
}

TEST_F(ServiceTest, CorruptedStoreFileDegradesToFreshBuild) {
  const std::string store = (dir_ / "corrupt_store").string();
  Collector col;
  {
    SolveService service({.workers = 1, .store_dir = store}, col.handler());
    service.submit(request("cold"));
    service.drain();
  }
  // Corrupt every store file (the service computes the key internally, so
  // the test clobbers the whole directory).
  int clobbered = 0;
  for (const auto& entry : fs::directory_iterator(store)) {
    std::ofstream f(entry.path(), std::ios::binary | std::ios::trunc);
    f << "garbage";
    ++clobbered;
  }
  ASSERT_EQ(clobbered, 1);
  Collector after;
  {
    SolveService service({.workers = 1, .store_dir = store}, after.handler());
    service.submit(request("rebuild"));
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.load_failures, 1);
    EXPECT_EQ(stats.cache.misses, 1) << "corrupt file -> fresh build";
    EXPECT_EQ(stats.completed, 1);
  }
  const auto& cold = col.by_id.at("cold");
  const auto& rebuilt = after.by_id.at("rebuild");
  EXPECT_EQ(rebuilt.cache, "miss");
  ASSERT_EQ(rebuilt.residuals.size(), cold.residuals.size());
  for (std::size_t k = 0; k < cold.residuals.size(); ++k) {
    EXPECT_EQ(rebuilt.residuals[k], cold.residuals[k]) << k;
  }
}

// ------------------------------------------------ SLO-aware scheduling --

TEST_F(ServiceTest, PredictiveSheddingRejectsDoomedDeadlines) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    // Establish per-operator service-time history.
    service.submit(request("seed"));
    service.drain();
    // A microsecond-scale deadline cannot fit the observed multi-ms solve:
    // the predictor must shed at admission, before any work queues.
    SolveRequest doomed = request("doomed");
    doomed.deadline_ms = 0.001;
    EXPECT_FALSE(service.submit(doomed));
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected_predicted, 1);
    EXPECT_EQ(stats.rejected_deadline, 0);
    EXPECT_EQ(stats.completed, 1);
  }
  const SolveResponse& r = col.by_id.at("doomed");
  EXPECT_EQ(r.status, "rejected");
  EXPECT_EQ(r.reason, "deadline_predicted");
}

TEST_F(ServiceTest, FirstRequestOfAnOperatorIsNeverPredictivelyShed) {
  // Without history the predictor has no estimate and must not guess —
  // admission stays deterministic for fresh operators (the bench's replay
  // reproducibility depends on this).
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    SolveRequest tight = request("tight");
    tight.deadline_ms = 0.001;
    EXPECT_TRUE(service.submit(tight)) << "no history -> no prediction";
    service.drain();
    EXPECT_EQ(service.stats().rejected_predicted, 0);
  }
  // The request was admitted; its microsecond deadline then lapsed while
  // queued, which is the pre-existing (post-admission) rejection path.
  EXPECT_EQ(col.by_id.at("tight").reason, "deadline");
}

// ----------------------------------------------------------- warm start --

TEST_F(ServiceTest, WarmStartReusesTheCachedSolution) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    service.submit(request("cold"));
    service.drain();
    SolveRequest again = request("again");
    again.warm_start = true;  // same operator, same RHS seed
    service.submit(again);
    service.drain();
    EXPECT_EQ(service.stats().warm_starts, 1);
  }
  const SolveResponse& cold = col.by_id.at("cold");
  const SolveResponse& again = col.by_id.at("again");
  EXPECT_FALSE(cold.warm_start);
  EXPECT_TRUE(again.warm_start);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, 0)
      << "starting from the converged solution of the identical request "
         "needs no iterations";
  // The warm solve honors the cold solve's residual target, not its own
  // (already tiny) initial residual.
  ASSERT_FALSE(cold.residuals.empty());
  EXPECT_LE(again.residuals.front(), 1e-8 * cold.residuals.front());
  const JsonValue v = to_json(again);
  EXPECT_TRUE(v.at("warm_start").as_bool());
}

TEST_F(ServiceTest, WarmStartIsOptInAndDefaultPathIsUnchanged) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    service.submit(request("cold"));
    service.drain();
    // Same request again WITHOUT warm_start: the populated solution cache
    // must not shorten the default path.
    service.submit(request("default"));
    service.drain();
    EXPECT_EQ(service.stats().warm_starts, 0);
  }
  const SolveResponse& cold = col.by_id.at("cold");
  const SolveResponse& dflt = col.by_id.at("default");
  EXPECT_FALSE(dflt.warm_start);
  EXPECT_EQ(dflt.iterations, cold.iterations);
  ASSERT_EQ(dflt.residuals.size(), cold.residuals.size());
  for (std::size_t k = 0; k < cold.residuals.size(); ++k) {
    EXPECT_EQ(dflt.residuals[k], cold.residuals[k]) << k;
  }
}

TEST_F(ServiceTest, WarmStartDifferentRhsFallsBackToColdSolve) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    service.submit(request("cold"));
    service.drain();
    SolveRequest other = request("other");
    other.warm_start = true;
    other.rhs_seed = 777;  // different RHS: cached solution must not apply
    service.submit(other);
    service.drain();
    EXPECT_EQ(service.stats().warm_starts, 0);
  }
  const SolveResponse& other = col.by_id.at("other");
  EXPECT_FALSE(other.warm_start) << "no matching solution -> cold solve";
  EXPECT_GT(other.iterations, 0);
}

TEST(ServeStatsTest, MergeAddsCountersAndMaxesBatchSize) {
  ServiceStats a;
  a.submitted = 3;
  a.admitted = 2;
  a.completed = 2;
  a.batches = 2;
  a.max_batch_size = 2;
  a.cache.hits = 1;
  a.cache.misses = 1;
  ServiceStats b;
  b.submitted = 4;
  b.admitted = 4;
  b.completed = 3;
  b.errors = 1;
  b.rejected_deadline = 1;
  b.rejected_predicted = 2;
  b.warm_starts = 1;
  b.operator_reuses = 4;
  b.rejected_parse = 2;
  b.batches = 1;
  b.max_batch_size = 3;
  b.cache.hits = 2;
  b.cache.insertions = 1;
  b.cache.disk_hits = 1;
  b.cache.spills = 2;
  b.cache.load_failures = 1;
  a.merge(b);
  EXPECT_EQ(a.submitted, 7);
  EXPECT_EQ(a.admitted, 6);
  EXPECT_EQ(a.completed, 5);
  EXPECT_EQ(a.errors, 1);
  EXPECT_EQ(a.rejected_deadline, 1);
  EXPECT_EQ(a.rejected_predicted, 2);
  EXPECT_EQ(a.warm_starts, 1);
  EXPECT_EQ(a.operator_reuses, 4);
  EXPECT_EQ(a.rejected_parse, 2);
  EXPECT_EQ(a.batches, 3);
  EXPECT_EQ(a.max_batch_size, 3);
  EXPECT_EQ(a.cache.hits, 3);
  EXPECT_EQ(a.cache.misses, 1);
  EXPECT_EQ(a.cache.insertions, 1);
  EXPECT_EQ(a.cache.disk_hits, 1);
  EXPECT_EQ(a.cache.spills, 2);
  EXPECT_EQ(a.cache.load_failures, 1);

  const JsonValue v = serve_stats_to_json(a);
  EXPECT_EQ(v.at("kind").as_string(), "serve");
  EXPECT_EQ(v.at("submitted").as_int(), 7);
  EXPECT_EQ(v.at("admitted").as_int(), 6);
  EXPECT_EQ(v.at("rejected_predicted").as_int(), 2);
  EXPECT_EQ(v.at("warm_starts").as_int(), 1);
  EXPECT_EQ(v.at("operator_reuses").as_int(), 4);
  EXPECT_EQ(v.at("rejected_parse").as_int(), 2);
  EXPECT_EQ(v.at("max_batch_size").as_int(), 3);
  EXPECT_EQ(v.at("cache").at("hits").as_int(), 3);
  EXPECT_EQ(v.at("cache").at("disk_hits").as_int(), 1);
  EXPECT_EQ(v.at("cache").at("spills").as_int(), 2);
  EXPECT_EQ(v.at("cache").at("load_failures").as_int(), 1);
}

// ------------------------------------------------------- JSONL frontend --

using ResponseMap = std::map<std::string, JsonValue>;

ResponseMap run_jsonl(const ServiceOptions& opts, const std::string& requests) {
  std::istringstream in(requests);
  std::ostringstream out;
  serve_requests(opts, in, out);
  std::istringstream lines(out.str());
  ResponseMap by_id;
  for (const JsonValue& v : read_jsonl(lines)) {
    by_id[v.at("id").as_string()] = v;
  }
  return by_id;
}

TEST_F(ServiceTest, ServeRequestsAnswersEveryLine) {
  const std::string requests =
      R"({"id":"ok1","matrix":")" + matrix_path_ + R"(","history":true})" "\n"
      R"(not even json)" "\n"
      R"({"id":"noid")" "\n"
      R"({"id":"late","matrix":")" + matrix_path_ + R"(","deadline_ms":0})" "\n";
  const ResponseMap by_id = run_jsonl({.workers = 2}, requests);
  ASSERT_EQ(by_id.size(), 4u);
  EXPECT_EQ(by_id.at("ok1").at("status").as_string(), "ok");
  EXPECT_EQ(by_id.at("line2").at("status").as_string(), "error");
  EXPECT_EQ(by_id.at("line3").at("status").as_string(), "error");
  EXPECT_EQ(by_id.at("late").at("status").as_string(), "rejected");
  EXPECT_EQ(by_id.at("late").at("reason").as_string(), "deadline");
}

TEST_F(ServiceTest, ServeRequestsCountsParseRejections) {
  MetricsRegistry metrics;
  std::istringstream in(
      R"({"id":"ok1","matrix":")" + matrix_path_ + R"("})" "\n"
      R"(not even json)" "\n"
      R"({"id":"bad","matrix":"m.mtx","method":"schwarz"})" "\n");
  std::ostringstream out;
  const ServiceStats stats =
      serve_requests({.workers = 1, .metrics = &metrics}, in, out);
  EXPECT_EQ(stats.rejected_parse, 2);
  EXPECT_EQ(stats.submitted, 1) << "parse rejections never reach submit";
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(metrics.counter("service.rejected_parse"), 2);
  EXPECT_EQ(serve_stats_to_json(stats).at("rejected_parse").as_int(), 2);
}

TEST_F(ServiceTest, WorkerCountDoesNotChangeResults) {
  std::string requests;
  for (int i = 0; i < 6; ++i) {
    SolveRequest req = request(numbered("r", i));
    req.rhs_seed = static_cast<std::uint64_t>(1000 + i);
    requests += to_json(req).dump() + "\n";
  }
  const ResponseMap one = run_jsonl({.workers = 1}, requests);
  const ResponseMap four = run_jsonl({.workers = 4}, requests);
  ASSERT_EQ(one.size(), 6u);
  ASSERT_EQ(four.size(), 6u);
  for (const auto& [id, resp1] : one) {
    const JsonValue& resp4 = four.at(id);
    EXPECT_EQ(resp1.at("iterations").as_int(), resp4.at("iterations").as_int());
    const auto& h1 = resp1.at("residuals").as_array();
    const auto& h4 = resp4.at("residuals").as_array();
    ASSERT_EQ(h1.size(), h4.size()) << id;
    for (std::size_t k = 0; k < h1.size(); ++k) {
      EXPECT_EQ(h1[k].as_double(), h4[k].as_double())
          << id << " iteration " << k;
    }
  }
}

TEST_F(ServiceTest, PrioritizedTrafficSolvesIdenticallyAcrossWorkerCounts) {
  // Priorities and deadlines reorder *scheduling*; per-request results must
  // stay bit-identical for any worker count (acceptance criterion).
  std::string requests;
  for (int i = 0; i < 6; ++i) {
    SolveRequest req = request(numbered("p", i));
    req.rhs_seed = static_cast<std::uint64_t>(2000 + i);
    req.priority = i % 3;
    if (i % 2 == 0) req.deadline_ms = 60000.0;
    requests += to_json(req).dump() + "\n";
  }
  const ResponseMap one = run_jsonl({.workers = 1}, requests);
  const ResponseMap four = run_jsonl({.workers = 4}, requests);
  ASSERT_EQ(one.size(), 6u);
  for (const auto& [id, r1] : one) {
    ASSERT_EQ(r1.at("status").as_string(), "ok") << id;
    const JsonValue& r4 = four.at(id);
    const auto& h1 = r1.at("residuals").as_array();
    const auto& h4 = r4.at("residuals").as_array();
    ASSERT_EQ(h1.size(), h4.size()) << id;
    for (std::size_t k = 0; k < h1.size(); ++k) {
      EXPECT_EQ(h1[k].as_double(), h4[k].as_double()) << id << " " << k;
    }
  }
}

TEST_F(ServiceTest, WatchDirectoryServesDroppedFilesOnce) {
  const fs::path watch_dir = dir_ / "inbox";
  fs::create_directories(watch_dir);
  {
    std::ofstream req(watch_dir / "job.jsonl");
    req << to_json(request("w1")).dump() << "\n"
        << to_json(request("w2")).dump() << "\n";
  }
  EXPECT_EQ(process_watch_directory({.workers = 1}, watch_dir.string()), 1);
  std::ifstream out(watch_dir / "job.out.jsonl");
  ASSERT_TRUE(out.good());
  const auto responses = read_jsonl(out);
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) {
    EXPECT_EQ(r.at("status").as_string(), "ok");
  }
  EXPECT_EQ(process_watch_directory({.workers = 1}, watch_dir.string()), 0)
      << "already-served files must not be reprocessed";
}

TEST_F(ServiceTest, WatchModeAccumulatesStatsAcrossFiles) {
  const fs::path watch_dir = dir_ / "inbox_stats";
  fs::create_directories(watch_dir);
  {
    std::ofstream req(watch_dir / "a.jsonl");
    req << to_json(request("a1")).dump() << "\n"
        << to_json(request("a2")).dump() << "\n";
  }
  {
    SolveRequest late = request("b2");
    late.deadline_ms = 0.0;
    std::ofstream req(watch_dir / "b.jsonl");
    req << to_json(request("b1")).dump() << "\n"
        << to_json(late).dump() << "\n";
  }
  ServiceStats stats;
  EXPECT_EQ(process_watch_directory({.workers = 1}, watch_dir.string(), &stats),
            2);
  // The accumulated stats are what `fsaic serve --watch` reports at exit —
  // the same totals --requests mode would see for the combined stream.
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.rejected_deadline, 1);
  EXPECT_EQ(stats.cache.misses + stats.cache.hits, stats.batches);
}

// ------------------------------------------------- generated operators --

TEST_F(ServiceTest, GeneratedOperatorSolvesAndHitsCacheOnRepeat) {
  Collector col;
  {
    SolveService service({.workers = 1, .cache_capacity = 4}, col.handler());
    SolveRequest req;
    req.id = "gen-cold";
    req.generate = "stencil3d:nx=8,ny=8,nz=8";
    req.ranks = 4;
    req.want_history = true;
    EXPECT_TRUE(service.submit(req));
    service.drain();
    req.id = "gen-warm";
    EXPECT_TRUE(service.submit(req));
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, 1);
    EXPECT_EQ(stats.cache.hits, 1);
  }
  const SolveResponse& cold = col.by_id.at("gen-cold");
  const SolveResponse& warm = col.by_id.at("gen-warm");
  ASSERT_EQ(cold.status, "ok");
  EXPECT_TRUE(cold.converged);
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_FALSE(cold.fingerprint.empty());
  EXPECT_EQ(cold.fingerprint, warm.fingerprint)
      << "rank-local fingerprint must be deterministic across solves";
  ASSERT_EQ(cold.residuals.size(), warm.residuals.size());
  for (std::size_t k = 0; k < cold.residuals.size(); ++k) {
    EXPECT_EQ(cold.residuals[k], warm.residuals[k])
        << "cached-factor solve of a generated operator must be "
           "bit-identical at iteration "
        << k;
  }
}

TEST_F(ServiceTest, GeneratedOperatorFingerprintIsRankCountInvariant) {
  // The same spec served at different rank counts is the same global
  // operator; the reported fingerprint must not depend on the partition.
  const auto serve_at = [&](const std::string& id, int ranks) {
    Collector col;
    {
      SolveService service({.workers = 1}, col.handler());
      SolveRequest req;
      req.id = id;
      req.generate = "rgg2d:n=500,seed=3";
      req.ranks = static_cast<rank_t>(ranks);
      EXPECT_TRUE(service.submit(req));
      service.drain();
    }
    const SolveResponse& r = col.by_id.at(id);
    EXPECT_EQ(r.status, "ok") << r.reason;
    return r.fingerprint;
  };
  const std::string fp1 = serve_at("one", 1);
  const std::string fp4 = serve_at("four", 4);
  EXPECT_FALSE(fp1.empty());
  EXPECT_EQ(fp1, fp4);
}

TEST_F(ServiceTest, ServeRequestsRejectsBadSpecsAndSolvesGoodOnes) {
  const std::string requests =
      R"({"id":"g1","generate":"stencil2d:nx=16,ny=16","ranks":4})" "\n"
      R"({"id":"gbad","generate":"stencil2d:nx=0","ranks":4})" "\n"
      R"({"id":"gfam","generate":"hexmesh:n=64"})" "\n";
  const ResponseMap by_id = run_jsonl({.workers = 1}, requests);
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id.at("g1").at("status").as_string(), "ok");
  EXPECT_EQ(by_id.at("gbad").at("status").as_string(), "error");
  EXPECT_EQ(by_id.at("gfam").at("status").as_string(), "error");
}

TEST_F(ServiceTest, WatchDirectoryServesGeneratorSpecRequests) {
  // Satellite acceptance: watch-dir mode accepts generator-spec request
  // files through the same parse path as --requests/stdin.
  const fs::path watch_dir = dir_ / "inbox_gen";
  fs::create_directories(watch_dir);
  {
    std::ofstream req(watch_dir / "gen.jsonl");
    req << R"({"id":"w-gen","generate":"stencil3d:nx=8,ny=8,nz=8","ranks":4,"history":true})"
        << "\n"
        << R"({"id":"w-mtx","matrix":")" << matrix_path_ << R"(","ranks":4})"
        << "\n"
        << R"({"id":"w-bad","generate":"stencil3d:bogus=1"})" << "\n";
  }
  EXPECT_EQ(process_watch_directory({.workers = 1}, watch_dir.string()), 1);
  std::ifstream out(watch_dir / "gen.out.jsonl");
  ASSERT_TRUE(out.good());
  std::map<std::string, JsonValue> by_id;
  for (const JsonValue& v : read_jsonl(out)) {
    by_id[v.at("id").as_string()] = v;
  }
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id.at("w-gen").at("status").as_string(), "ok");
  EXPECT_TRUE(by_id.at("w-gen").at("converged").as_bool());
  EXPECT_EQ(by_id.at("w-mtx").at("status").as_string(), "ok");
  EXPECT_EQ(by_id.at("w-bad").at("status").as_string(), "error")
      << "watch-dir intake must reject bad specs like every other intake";
}


// ------------------------------------------------------- operator reuse --

SolveRequest gen_request(const std::string& id, const std::string& spec,
                         std::uint64_t rhs_seed = 2022) {
  SolveRequest req;
  req.id = id;
  req.generate = spec;
  req.ranks = 4;
  req.rhs_seed = rhs_seed;
  req.want_history = true;
  return req;
}

void expect_same_history(const SolveResponse& x, const SolveResponse& y) {
  ASSERT_EQ(x.status, "ok") << x.id << ": " << x.reason;
  ASSERT_EQ(y.status, "ok") << y.id << ": " << y.reason;
  ASSERT_EQ(x.residuals.size(), y.residuals.size()) << x.id << " vs " << y.id;
  for (std::size_t k = 0; k < x.residuals.size(); ++k) {
    EXPECT_EQ(x.residuals[k], y.residuals[k])
        << x.id << " vs " << y.id << " iteration " << k;
  }
}

/// Solve each request alone on a fresh single-worker service without a
/// factor cache: the reference every pooled path must reproduce.
std::map<std::string, SolveResponse> solo_solves(
    const std::vector<SolveRequest>& reqs) {
  Collector col;
  SolveService service({.workers = 1, .cache_capacity = 0}, col.handler());
  for (const SolveRequest& req : reqs) service.submit(req);
  service.drain();
  return col.by_id;
}

TEST_F(ServiceTest, ReusedOperatorCountsOneRamHitPerResponse) {
  const std::string spec = "stencil3d:nx=8,ny=8,nz=8";
  Collector col;
  {
    SolveService service({.workers = 1, .cache_capacity = 4}, col.handler());
    for (int i = 0; i < 5; ++i) {
      service.submit(gen_request(numbered("g", i), spec,
                                 static_cast<std::uint64_t>(100 + i)));
      service.drain();
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, 1);
    EXPECT_EQ(stats.cache.hits, 4) << "a reused batch still looks its factor up";
    EXPECT_EQ(stats.cache.hits + stats.cache.disk_hits + stats.cache.misses,
              stats.completed);
    // g0 builds, g1 hits and pools its state, g2..g4 lease it.
    EXPECT_EQ(stats.operator_reuses, 3);
  }
  for (int i = 1; i < 5; ++i) {
    const SolveResponse& r = col.by_id.at(numbered("g", i));
    EXPECT_EQ(r.cache, "hit");
    EXPECT_EQ(r.fingerprint, col.by_id.at("g0").fingerprint);
  }
  std::vector<SolveRequest> reqs;
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(gen_request(numbered("g", i), spec,
                               static_cast<std::uint64_t>(100 + i)));
  }
  const auto solo = solo_solves(reqs);
  for (const SolveRequest& req : reqs) {
    expect_same_history(col.by_id.at(req.id), solo.at(req.id));
  }
}

TEST_F(ServiceTest, ConcurrentSameKeyTrafficIsBitIdenticalToSoloSolves) {
  // Four workers, one operator, no batching: every request is its own batch,
  // three workers steal from the operator's lane, and at most one of them
  // holds the pooled state at a time while the others build their own. Runs
  // in the TSAN lane, which checks the lease hand-off between workers.
  const std::string spec = "stencil2d:nx=24,ny=24";
  std::vector<SolveRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(gen_request(numbered("c", i), spec,
                               static_cast<std::uint64_t>(300 + i % 4)));
  }
  Collector col;
  {
    SolveService service({.workers = 4,
                          .cache_capacity = 2,
                          .batching = false,
                          .solver_threads = 2},
                         col.handler());
    // Warm up: build the factor, then pool the state.
    service.submit(gen_request("warm0", spec));
    service.drain();
    service.submit(gen_request("warm1", spec));
    service.drain();
    for (const SolveRequest& req : reqs) service.submit(req);
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 18);
    EXPECT_EQ(stats.cache.hits + stats.cache.disk_hits + stats.cache.misses,
              stats.completed);
    EXPECT_GE(stats.operator_reuses, 1);
  }
  const auto solo = solo_solves(reqs);
  for (const SolveRequest& req : reqs) {
    expect_same_history(col.by_id.at(req.id), solo.at(req.id));
  }
}

TEST_F(ServiceTest, EvictedFactorIsNotReusedAndStaysBitIdentical) {
  // Capacity 1: interleaving a second operator evicts the first one's
  // factor, so its pooled preconditioner must not be used again. Covers a
  // workload spec and a suite name (the assembled, graph-partitioned path).
  for (const std::string spec : {"stencil2d:nx=20,ny=20", "nd24k-sim"}) {
    SCOPED_TRACE(spec);
    const std::string other = "stencil3d:nx=6,ny=6,nz=6";
    Collector col;
    std::int64_t reuses_after_eviction = -1;
    {
      SolveService service({.workers = 1, .cache_capacity = 1},
                           col.handler());
      const auto solve = [&](const SolveRequest& req) {
        service.submit(req);
        service.drain();
      };
      solve(gen_request("a0", spec));     // miss: build
      solve(gen_request("a1", spec));     // hit: pooled
      solve(gen_request("b0", other));    // miss: evicts a's factor
      solve(gen_request("a2", spec));     // leased state, factor gone: rebuild
      reuses_after_eviction = service.stats().operator_reuses;
      solve(gen_request("a3", spec));     // hit: pooled again
      solve(gen_request("a4", spec));     // reused
      EXPECT_EQ(service.stats().operator_reuses, 1);
    }
    EXPECT_EQ(reuses_after_eviction, 0);
    EXPECT_EQ(col.by_id.at("a2").cache, "miss");
    EXPECT_EQ(col.by_id.at("a2").fingerprint, col.by_id.at("a0").fingerprint);
    for (const std::string id : {"a1", "a2", "a3", "a4"}) {
      expect_same_history(col.by_id.at(id), col.by_id.at("a0"));
    }
  }
}

TEST_F(ServiceTest, RewrittenMatrixFileGetsItsOwnFingerprintAndHistory) {
  // File operators are never pooled: a file rewritten between requests is
  // re-read and re-fingerprinted, never answered with the old operator.
  Collector col;
  {
    SolveService service({.workers = 1, .cache_capacity = 4}, col.handler());
    service.submit(request("old0"));
    service.drain();
    service.submit(request("old1"));
    service.drain();
    write_matrix_market_file(matrix_path_, anisotropic2d(12, 12, 0.05));
    service.submit(request("new0"));
    service.drain();
    EXPECT_EQ(service.stats().operator_reuses, 0);
  }
  const SolveResponse& old1 = col.by_id.at("old1");
  const SolveResponse& new0 = col.by_id.at("new0");
  EXPECT_EQ(old1.cache, "hit");
  EXPECT_EQ(new0.cache, "miss");
  EXPECT_NE(new0.fingerprint, old1.fingerprint);
  const auto fresh = solo_solves({request("new0")});
  expect_same_history(new0, fresh.at("new0"));
  ASSERT_EQ(old1.status, "ok");
  EXPECT_NE(new0.residuals, old1.residuals);
}

TEST_F(ServiceTest, ZeroCacheCapacityRetainsNoOperator) {
  const std::string spec = "stencil2d:nx=16,ny=16";
  Collector col;
  {
    SolveService service({.workers = 1, .cache_capacity = 0}, col.handler());
    for (int i = 0; i < 3; ++i) {
      service.submit(gen_request(numbered("z", i), spec));
      service.drain();
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, 3);
    EXPECT_EQ(stats.cache.hits, 0);
    EXPECT_EQ(stats.operator_reuses, 0);
  }
  for (const std::string id : {"z1", "z2"}) {
    EXPECT_EQ(col.by_id.at(id).cache, "miss");
    EXPECT_GT(col.by_id.at(id).load_us, 0.0) << "operator reloaded each time";
    expect_same_history(col.by_id.at(id), col.by_id.at("z0"));
  }
}

TEST_F(ServiceTest, LatencySplitCoversASoloRequest) {
  Collector col;
  {
    SolveService service({.workers = 1}, col.handler());
    service.submit(gen_request("solo", "stencil2d:nx=16,ny=16"));
    service.drain();
  }
  const SolveResponse& r = col.by_id.at("solo");
  ASSERT_EQ(r.status, "ok");
  EXPECT_GT(r.load_us, 0.0);
  EXPECT_LE(r.queue_us + r.load_us + r.setup_us + r.solve_us, r.total_us);
  const JsonValue v = to_json(r);
  EXPECT_EQ(v.at("load_us").as_double(), r.load_us);
}

}  // namespace
}  // namespace fsaic
