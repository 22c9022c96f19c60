#include "sparse/local_operator.hpp"

#include "common/error.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

std::string to_string(FactorPrecision precision) {
  return precision == FactorPrecision::Single ? "single" : "double";
}

FactorPrecision factor_precision_from_string(const std::string& s) {
  if (s == "double") return FactorPrecision::Double;
  if (s == "single" || s == "mixed") return FactorPrecision::Single;
  throw Error("unknown factor precision: " + s + " (expected double|single)");
}

LocalOperator::LocalOperator(const CsrMatrix& a, FactorPrecision precision) {
  if (precision == FactorPrecision::Single) {
    const auto vals = a.values();
    auto f = std::make_shared<std::vector<float>>(vals.size());
    for (std::size_t k = 0; k < vals.size(); ++k) {
      (*f)[k] = static_cast<float>(vals[k]);
    }
    values_f_ = std::move(f);
  }
}

namespace {

/// Row i of the float32 copy times x, accumulated in double in ascending
/// column order.
value_t single_row(const CsrMatrix& a, const std::vector<float>& fvals,
                   index_t i, std::span<const value_t> x) {
  const auto cols = a.row_cols(i);
  const auto b = static_cast<std::size_t>(a.row_ptr()[static_cast<std::size_t>(i)]);
  value_t sum = 0.0;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    sum += static_cast<value_t>(fvals[b + k]) *
           x[static_cast<std::size_t>(cols[k])];
  }
  return sum;
}

}  // namespace

/// The scalar row loop: per-row accumulation in ascending column order,
/// replicating fsaic::spmv row for row.
void LocalOperator::spmv_rows(const CsrMatrix& a, std::span<const index_t> rows,
                              std::span<const value_t> x,
                              std::span<value_t> y) const {
  if (values_f_ != nullptr) {
    for (const index_t i : rows) {
      y[static_cast<std::size_t>(i)] = single_row(a, *values_f_, i, x);
    }
    return;
  }
  for (const index_t i : rows) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    value_t sum = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      sum += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

void LocalOperator::spmv_all(const CsrMatrix& a, std::span<const value_t> x,
                             std::span<value_t> y) const {
  if (values_f_ != nullptr) {
    for (index_t i = 0; i < a.rows(); ++i) {
      y[static_cast<std::size_t>(i)] = single_row(a, *values_f_, i, x);
    }
    return;
  }
  fsaic::spmv(a, x, y);
}

}  // namespace fsaic
