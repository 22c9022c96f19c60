#include "sparse/local_operator.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

std::string to_string(OperatorFormat format) {
  return format == OperatorFormat::Sell ? "sell" : "csr";
}

std::string to_string(FactorPrecision precision) {
  return precision == FactorPrecision::Single ? "single" : "double";
}

OperatorFormat operator_format_from_string(const std::string& s) {
  if (s == "csr") return OperatorFormat::Csr;
  if (s == "sell") return OperatorFormat::Sell;
  throw Error("unknown operator format: " + s + " (expected csr|sell)");
}

FactorPrecision factor_precision_from_string(const std::string& s) {
  if (s == "double") return FactorPrecision::Double;
  if (s == "single" || s == "mixed") return FactorPrecision::Single;
  throw Error("unknown factor precision: " + s + " (expected double|single)");
}

KernelConfig KernelConfig::from_env() {
  KernelConfig config;
  const char* env = std::getenv("FSAIC_FORMAT");
  if (env != nullptr && *env != '\0') {
    if (std::string(env) == "auto") {
      config.autotune = true;
    } else {
      config.format = operator_format_from_string(env);
    }
  }
  return config;
}

LocalOperator::LocalOperator(const CsrMatrix& a,
                             std::span<const index_t> interior,
                             std::span<const index_t> boundary,
                             const KernelConfig& config)
    : config_(config) {
  if (config_.format == OperatorFormat::Sell) {
    const bool single = config_.precision == FactorPrecision::Single;
    sell_interior_ = std::make_shared<const SellMatrix>(
        a, interior, config_.sell_chunk, config_.sell_sigma, single);
    sell_boundary_ = std::make_shared<const SellMatrix>(
        a, boundary, config_.sell_chunk, config_.sell_sigma, single);
  } else if (config_.precision == FactorPrecision::Single) {
    const auto vals = a.values();
    auto f = std::make_shared<std::vector<float>>(vals.size());
    for (std::size_t k = 0; k < vals.size(); ++k) {
      (*f)[k] = static_cast<float>(vals[k]);
    }
    csr_values_f_ = std::move(f);
  }
}

offset_t LocalOperator::padded_entries(const CsrMatrix& a) const {
  if (config_.format == OperatorFormat::Sell) {
    return sell_interior_->padded_size() + sell_boundary_->padded_size();
  }
  return a.nnz();
}

double LocalOperator::padding_ratio(const CsrMatrix& a) const {
  return a.nnz() > 0 ? static_cast<double>(padded_entries(a)) /
                           static_cast<double>(a.nnz())
                     : 1.0;
}

void LocalOperator::apply_sell(const SellMatrix& sell,
                               std::span<const value_t> x,
                               std::span<value_t> y) const {
  if (config_.precision == FactorPrecision::Single) {
    sell.spmv_single(x, y);
  } else {
    sell.spmv(x, y);
  }
}

/// The scalar reference loop: per-row accumulation in ascending column
/// order, replicating the historic dist spmv_rows kernel exactly — every
/// fast path is differential-tested against these sums.
void LocalOperator::csr_rows(const CsrMatrix& a, std::span<const index_t> rows,
                             std::span<const value_t> x,
                             std::span<value_t> y) const {
  if (config_.precision == FactorPrecision::Single) {
    const auto& fvals = *csr_values_f_;
    const auto row_ptr = a.row_ptr();
    for (const index_t i : rows) {
      const auto cols = a.row_cols(i);
      const auto b = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
      value_t sum = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        sum += static_cast<value_t>(fvals[b + k]) *
               x[static_cast<std::size_t>(cols[k])];
      }
      y[static_cast<std::size_t>(i)] = sum;
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

void LocalOperator::spmv_interior(const CsrMatrix& a,
                                  std::span<const index_t> rows,
                                  std::span<const value_t> x,
                                  std::span<value_t> y) const {
  if (config_.format == OperatorFormat::Sell) {
    apply_sell(*sell_interior_, x, y);
  } else {
    csr_rows(a, rows, x, y);
  }
}

void LocalOperator::spmv_boundary(const CsrMatrix& a,
                                  std::span<const index_t> rows,
                                  std::span<const value_t> x,
                                  std::span<value_t> y) const {
  if (config_.format == OperatorFormat::Sell) {
    apply_sell(*sell_boundary_, x, y);
  } else {
    csr_rows(a, rows, x, y);
  }
}

void LocalOperator::spmv_all(const CsrMatrix& a,
                             std::span<const index_t> interior,
                             std::span<const index_t> boundary,
                             std::span<const value_t> x,
                             std::span<value_t> y) const {
  if (config_.format == OperatorFormat::Sell) {
    apply_sell(*sell_interior_, x, y);
    apply_sell(*sell_boundary_, x, y);
    return;
  }
  if (config_.precision == FactorPrecision::Single) {
    csr_rows(a, interior, x, y);
    csr_rows(a, boundary, x, y);
    return;
  }
  // The historic non-overlapping path: one sweep over the whole block. Row
  // sums are independent, so this matches the subset kernels bit for bit.
  fsaic::spmv(a, x, y);
}

}  // namespace fsaic
