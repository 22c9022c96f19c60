#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "obs/json.hpp"

namespace fsaic {
namespace {

TEST(JsonTest, DumpParseRoundTripsEveryType) {
  JsonValue obj;
  obj["null"] = JsonValue();
  obj["flag"] = true;
  obj["big"] = (std::int64_t{1} << 62) + 3;  // beyond double's 2^53 integers
  obj["neg"] = std::int64_t{-7};
  obj["pi"] = 3.140625;
  obj["text"] = "line\nbreak \"quoted\" back\\slash";
  JsonValue arr;
  arr.push_back(1);
  arr.push_back("two");
  obj["arr"] = arr;

  const JsonValue back = JsonValue::parse(obj.dump());
  EXPECT_TRUE(back.at("null").is_null());
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_EQ(back.at("big").as_int(), (std::int64_t{1} << 62) + 3);
  EXPECT_EQ(back.at("neg").as_int(), -7);
  EXPECT_DOUBLE_EQ(back.at("pi").as_double(), 3.140625);
  EXPECT_EQ(back.at("text").as_string(), "line\nbreak \"quoted\" back\\slash");
  ASSERT_EQ(back.at("arr").as_array().size(), 2u);
  EXPECT_EQ(back.at("arr").as_array()[1].as_string(), "two");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::exception);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::exception);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), std::exception);
  EXPECT_THROW(JsonValue::parse(""), std::exception);
}

TEST(ReportTest, WriterEmitsOneLinePerRecord) {
  std::ostringstream out;
  RunReportWriter writer(out);
  JsonValue a;
  a["kind"] = "run";
  a["n"] = 1;
  writer.write(a);
  JsonValue b;
  b["kind"] = "iteration";
  b["n"] = 2;
  writer.write(b);
  EXPECT_EQ(writer.records_written(), 2);

  std::istringstream in(out.str());
  const auto records = read_jsonl(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("kind").as_string(), "run");
  EXPECT_EQ(records[1].at("n").as_int(), 2);
}

TEST(ReportTest, FileRoundTripAndBadPathThrows) {
  const std::string path = ::testing::TempDir() + "fsaic_report_test.jsonl";
  {
    RunReportWriter writer(path);
    for (int i = 0; i < 3; ++i) {
      JsonValue rec;
      rec["i"] = i;
      writer.write(rec);
    }
  }
  const auto records = read_jsonl_file(path);
  ASSERT_EQ(records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].at("i").as_int(), i);
  }
  EXPECT_THROW(RunReportWriter("/nonexistent-dir/x.jsonl"), std::exception);
}

TEST(ReportTest, CommStatsJsonMatchesTotalsExactly) {
  CommStats stats;
  stats.record_halo_message(0, 1, std::int64_t{1} << 40);
  stats.record_halo_message(2, 1, 24);
  stats.record_allreduce(8);
  const JsonValue json = comm_stats_to_json(stats);
  EXPECT_EQ(json.at("halo_messages").as_int(), stats.halo_messages);
  EXPECT_EQ(json.at("halo_bytes").as_int(), stats.halo_bytes);
  EXPECT_EQ(json.at("allreduce_count").as_int(), stats.allreduce_count);
  EXPECT_EQ(json.at("allreduce_bytes").as_int(), stats.allreduce_bytes);
  EXPECT_EQ(json.at("neighbor_pairs").as_int(),
            static_cast<std::int64_t>(stats.neighbor_pair_count()));
}

TEST(ReportTest, RunRecordRoundTripsThroughJsonl) {
  RunRecord rec;
  rec.matrix = "poisson2d-64";
  rec.method = "fsaie-comm f=0.01";
  rec.nranks = 8;
  rec.rows = 4096;
  rec.matrix_nnz = 20224;
  rec.converged = true;
  rec.iterations = 123;
  rec.modeled_time = 0.0625;
  rec.iter_cost = 5e-4;
  rec.precond_cost = 2e-4;
  rec.nnz_increase_pct = 12.5;
  rec.imbalance_g = 1.125;
  rec.imbalance_gt = 1.25;
  rec.precond_gflops = 3.5;
  rec.x_misses_per_gnnz = 0.375;
  rec.halo_bytes_g = 8192;
  rec.halo_msgs_g = 14;
  rec.g_nnz = 30000;
  rec.solve_halo_bytes = (std::int64_t{1} << 54) + 1;  // int64-exact territory
  rec.solve_halo_messages = 2952;
  rec.solve_allreduce_count = 369;
  rec.solve_allreduce_bytes = 5904;
  rec.solve_neighbor_pairs = 22;
  rec.setup_seconds = 0.03125;
  rec.solve_seconds = 0.015625;
  rec.setup_rows_solved = 6144;
  rec.setup_gram_entries = (std::int64_t{1} << 40) + 3;
  rec.provisional_fallback_rows = 2;
  rec.provisional_degenerate_rows = 1;
  rec.factor_fallback_rows = 3;
  rec.factor_degenerate_rows = 0;

  // Through the writer and parser, as the bench artifacts travel.
  std::ostringstream out;
  RunReportWriter writer(out);
  writer.write(run_record_to_json(rec));
  std::istringstream in(out.str());
  const auto records = read_jsonl(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("kind").as_string(), "run");
  const RunRecord back = run_record_from_json(records[0]);

  EXPECT_EQ(back.matrix, rec.matrix);
  EXPECT_EQ(back.method, rec.method);
  EXPECT_EQ(back.nranks, rec.nranks);
  EXPECT_EQ(back.rows, rec.rows);
  EXPECT_EQ(back.matrix_nnz, rec.matrix_nnz);
  EXPECT_EQ(back.converged, rec.converged);
  EXPECT_EQ(back.iterations, rec.iterations);
  EXPECT_DOUBLE_EQ(back.modeled_time, rec.modeled_time);
  EXPECT_DOUBLE_EQ(back.iter_cost, rec.iter_cost);
  EXPECT_DOUBLE_EQ(back.precond_cost, rec.precond_cost);
  EXPECT_DOUBLE_EQ(back.nnz_increase_pct, rec.nnz_increase_pct);
  EXPECT_DOUBLE_EQ(back.imbalance_g, rec.imbalance_g);
  EXPECT_DOUBLE_EQ(back.imbalance_gt, rec.imbalance_gt);
  EXPECT_DOUBLE_EQ(back.precond_gflops, rec.precond_gflops);
  EXPECT_DOUBLE_EQ(back.x_misses_per_gnnz, rec.x_misses_per_gnnz);
  EXPECT_EQ(back.halo_bytes_g, rec.halo_bytes_g);
  EXPECT_EQ(back.halo_msgs_g, rec.halo_msgs_g);
  EXPECT_EQ(back.g_nnz, rec.g_nnz);
  EXPECT_EQ(back.solve_halo_bytes, rec.solve_halo_bytes);
  EXPECT_EQ(back.solve_halo_messages, rec.solve_halo_messages);
  EXPECT_EQ(back.solve_allreduce_count, rec.solve_allreduce_count);
  EXPECT_EQ(back.solve_allreduce_bytes, rec.solve_allreduce_bytes);
  EXPECT_EQ(back.solve_neighbor_pairs, rec.solve_neighbor_pairs);
  EXPECT_DOUBLE_EQ(back.setup_seconds, rec.setup_seconds);
  EXPECT_DOUBLE_EQ(back.solve_seconds, rec.solve_seconds);
  EXPECT_EQ(back.setup_rows_solved, rec.setup_rows_solved);
  EXPECT_EQ(back.setup_gram_entries, rec.setup_gram_entries);
  EXPECT_EQ(back.provisional_fallback_rows, rec.provisional_fallback_rows);
  EXPECT_EQ(back.provisional_degenerate_rows, rec.provisional_degenerate_rows);
  EXPECT_EQ(back.factor_fallback_rows, rec.factor_fallback_rows);
  EXPECT_EQ(back.factor_degenerate_rows, rec.factor_degenerate_rows);
}

}  // namespace
}  // namespace fsaic
