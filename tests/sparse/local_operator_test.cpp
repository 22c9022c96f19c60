#include "sparse/local_operator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "matgen/generators.hpp"
#include "sparse/ops.hpp"

namespace fsaic {
namespace {

std::vector<value_t> random_vec(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_uniform(-1.0, 1.0);
  return v;
}

/// Split [0, rows) into an "interior" prefix and "boundary" tail, the shape
/// DistCsr hands the operator.
struct Split {
  std::vector<index_t> interior;
  std::vector<index_t> boundary;
};

Split split_rows(index_t rows, index_t boundary_count) {
  Split s;
  for (index_t i = 0; i < rows - boundary_count; ++i) s.interior.push_back(i);
  for (index_t i = rows - boundary_count; i < rows; ++i) s.boundary.push_back(i);
  return s;
}

TEST(FactorPrecisionTest, StringRoundTrips) {
  EXPECT_EQ(to_string(FactorPrecision::Double), "double");
  EXPECT_EQ(to_string(FactorPrecision::Single), "single");
  EXPECT_EQ(factor_precision_from_string("double"), FactorPrecision::Double);
  EXPECT_EQ(factor_precision_from_string("single"), FactorPrecision::Single);
  EXPECT_EQ(factor_precision_from_string("mixed"), FactorPrecision::Single);
  EXPECT_THROW((void)factor_precision_from_string("half"), Error);
}

TEST(LocalOperatorTest, SpmvAllMatchesReferenceBitwise) {
  const auto a = random_laplacian(150, 6, 0.1, 51);
  const LocalOperator op(a, FactorPrecision::Double);
  EXPECT_EQ(op.precision(), FactorPrecision::Double);
  const auto x = random_vec(a.cols(), 52);
  std::vector<value_t> y_ref(static_cast<std::size_t>(a.rows()));
  std::vector<value_t> y_op(static_cast<std::size_t>(a.rows()));
  spmv(a, x, y_ref);
  op.spmv_all(a, x, y_op);
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    ASSERT_EQ(y_op[i], y_ref[i]) << "row " << i;
  }
}

TEST(LocalOperatorTest, InteriorAndBoundaryPartitionTheRows) {
  const auto a = poisson2d(9, 9);
  const auto split = split_rows(a.rows(), 13);
  const LocalOperator op(a, FactorPrecision::Double);
  const auto x = random_vec(a.cols(), 53);
  std::vector<value_t> y_ref(static_cast<std::size_t>(a.rows()));
  spmv(a, x, y_ref);

  std::vector<value_t> y(static_cast<std::size_t>(a.rows()), -1.0);
  op.spmv_rows(a, split.interior, x, y);
  for (const index_t r : split.boundary) {
    ASSERT_EQ(y[static_cast<std::size_t>(r)], -1.0)
        << "boundary row " << r << " touched by interior apply";
  }
  op.spmv_rows(a, split.boundary, x, y);
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    ASSERT_EQ(y[i], y_ref[i]) << "row " << i;
  }
}

TEST(LocalOperatorTest, SinglePrecisionStorageStaysClose) {
  const auto a = random_spd(90, 4, 71);
  const LocalOperator op(a, FactorPrecision::Single);
  EXPECT_EQ(op.precision(), FactorPrecision::Single);
  const auto x = random_vec(a.cols(), 72);
  std::vector<value_t> y_ref(static_cast<std::size_t>(a.rows()));
  std::vector<value_t> y_op(static_cast<std::size_t>(a.rows()));
  spmv(a, x, y_ref);
  op.spmv_all(a, x, y_op);
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    ASSERT_NEAR(y_op[i], y_ref[i], 1e-5 * (1.0 + std::abs(y_ref[i])))
        << "row " << i;
  }
}

TEST(LocalOperatorTest, SinglePrecisionRowSubsetsMatchFullApplyBitwise) {
  // The overlap SpMV applies interior then boundary rows; the flat path
  // applies all rows at once. Both must give the same float32-storage sums.
  const auto a = random_spd(90, 4, 73);
  const auto split = split_rows(a.rows(), 15);
  const LocalOperator op(a, FactorPrecision::Single);
  const auto x = random_vec(a.cols(), 74);
  std::vector<value_t> y_all(static_cast<std::size_t>(a.rows()));
  std::vector<value_t> y_rows(static_cast<std::size_t>(a.rows()));
  op.spmv_all(a, x, y_all);
  op.spmv_rows(a, split.interior, x, y_rows);
  op.spmv_rows(a, split.boundary, x, y_rows);
  for (std::size_t i = 0; i < y_all.size(); ++i) {
    ASSERT_EQ(y_rows[i], y_all[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace fsaic
