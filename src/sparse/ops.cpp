#include "sparse/ops.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/coo.hpp"

namespace fsaic {

void spmv(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y) {
  FSAIC_REQUIRE(x.size() == static_cast<std::size_t>(a.cols()), "x size mismatch");
  FSAIC_REQUIRE(y.size() == static_cast<std::size_t>(a.rows()), "y size mismatch");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const index_t n = a.rows();
  for (index_t i = 0; i < n; ++i) {
    value_t sum = 0.0;
    const auto b = row_ptr[static_cast<std::size_t>(i)];
    const auto e = row_ptr[static_cast<std::size_t>(i) + 1];
    for (offset_t k = b; k < e; ++k) {
      sum += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

void spmv_transpose(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<value_t> y) {
  FSAIC_REQUIRE(x.size() == static_cast<std::size_t>(a.rows()), "x size mismatch");
  FSAIC_REQUIRE(y.size() == static_cast<std::size_t>(a.cols()), "y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    const value_t xi = x[static_cast<std::size_t>(i)];
    const auto b = row_ptr[static_cast<std::size_t>(i)];
    const auto e = row_ptr[static_cast<std::size_t>(i) + 1];
    for (offset_t k = b; k < e; ++k) {
      y[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])] +=
          values[static_cast<std::size_t>(k)] * xi;
    }
  }
}

CsrMatrix transpose(const CsrMatrix& a) {
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  for (index_t j : a.col_idx()) {
    ++row_ptr[static_cast<std::size_t>(j) + 1];
  }
  for (index_t j = 0; j < a.cols(); ++j) {
    row_ptr[static_cast<std::size_t>(j) + 1] += row_ptr[static_cast<std::size_t>(j)];
  }
  std::vector<index_t> col_idx(static_cast<std::size_t>(a.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(a.nnz()));
  std::vector<offset_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    for (std::size_t k = 0; k < cols_i.size(); ++k) {
      const auto pos = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(cols_i[k])]++);
      col_idx[pos] = i;
      values[pos] = vals_i[k];
    }
  }
  return CsrMatrix(a.cols(), a.rows(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix threshold(const CsrMatrix& a, value_t tau) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "threshold requires a square matrix");
  FSAIC_REQUIRE(tau >= 0.0, "threshold must be non-negative");
  const auto diag = a.diagonal();
  CooBuilder out(a.rows(), a.cols());
  out.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    for (std::size_t k = 0; k < cols_i.size(); ++k) {
      const index_t j = cols_i[k];
      const value_t v = vals_i[k];
      if (v == 0.0) continue;
      if (i == j) {
        out.add(i, j, v);
        continue;
      }
      const value_t scale = std::sqrt(std::abs(diag[static_cast<std::size_t>(i)] *
                                               diag[static_cast<std::size_t>(j)]));
      if (std::abs(v) >= tau * scale) out.add(i, j, v);
    }
  }
  return out.to_csr();
}

CsrMatrix restrict_to_pattern(const CsrMatrix& a, const SparsityPattern& p) {
  FSAIC_REQUIRE(a.rows() == p.rows() && a.cols() == p.cols(),
                "pattern shape mismatch");
  CsrMatrix out{p};
  for (index_t i = 0; i < p.rows(); ++i) {
    auto vals = out.row_vals(i);
    const auto cols = p.row(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      vals[k] = a.at(i, cols[k]);
    }
  }
  return out;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const index_t> perm) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "symmetric permutation requires square");
  FSAIC_REQUIRE(perm.size() == static_cast<std::size_t>(a.rows()),
                "permutation size mismatch");
  const index_t n = a.rows();
  std::vector<index_t> inverse(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    const index_t pi = perm[static_cast<std::size_t>(i)];
    FSAIC_REQUIRE(pi >= 0 && pi < n, "permutation index out of range");
    FSAIC_REQUIRE(inverse[static_cast<std::size_t>(pi)] == -1,
                  "permutation maps two indices to one");
    inverse[static_cast<std::size_t>(pi)] = i;
  }
  const auto src_ptr = a.row_ptr();
  const auto src_idx = a.col_idx();
  const auto src_val = a.values();
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(inverse[static_cast<std::size_t>(r)]);
    row_ptr[static_cast<std::size_t>(r) + 1] =
        row_ptr[static_cast<std::size_t>(r)] + (src_ptr[i + 1] - src_ptr[i]);
  }
  std::vector<index_t> col_idx(static_cast<std::size_t>(a.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(a.nnz()));
  for (index_t r = 0; r < n; ++r) {
    const index_t i = inverse[static_cast<std::size_t>(r)];
    const auto out = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r)]);
    const auto b = static_cast<std::size_t>(src_ptr[static_cast<std::size_t>(i)]);
    const auto len = static_cast<std::size_t>(src_ptr[static_cast<std::size_t>(i) + 1]) - b;
    // Insertion-sort the renumbered row. `0.0 + v` is the value a COO
    // assembly sums into an empty slot: it maps -0.0 to +0.0.
    for (std::size_t k = 0; k < len; ++k) {
      const index_t c = perm[static_cast<std::size_t>(src_idx[b + k])];
      const value_t v = 0.0 + src_val[b + k];
      std::size_t pos = out + k;
      while (pos > out && col_idx[pos - 1] > c) {
        col_idx[pos] = col_idx[pos - 1];
        values[pos] = values[pos - 1];
        --pos;
      }
      col_idx[pos] = c;
      values[pos] = v;
    }
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix lower_triangle(const CsrMatrix& a) {
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    for (std::size_t k = 0; k < cols_i.size(); ++k) {
      if (cols_i[k] <= i) {
        col_idx.push_back(cols_i[k]);
        values.push_back(vals_i[k]);
      }
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b) {
  FSAIC_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols()), -1);
  std::vector<value_t> accum(static_cast<std::size_t>(b.cols()), 0.0);
  std::vector<index_t> row_cols;
  for (index_t i = 0; i < a.rows(); ++i) {
    row_cols.clear();
    const auto a_cols = a.row_cols(i);
    const auto a_vals = a.row_vals(i);
    for (std::size_t ka = 0; ka < a_cols.size(); ++ka) {
      const index_t k = a_cols[ka];
      const value_t av = a_vals[ka];
      const auto b_cols = b.row_cols(k);
      const auto b_vals = b.row_vals(k);
      for (std::size_t kb = 0; kb < b_cols.size(); ++kb) {
        const index_t j = b_cols[kb];
        if (marker[static_cast<std::size_t>(j)] != i) {
          marker[static_cast<std::size_t>(j)] = i;
          accum[static_cast<std::size_t>(j)] = 0.0;
          row_cols.push_back(j);
        }
        accum[static_cast<std::size_t>(j)] += av * b_vals[kb];
      }
    }
    std::sort(row_cols.begin(), row_cols.end());
    for (index_t j : row_cols) {
      col_idx.push_back(j);
      values.push_back(accum[static_cast<std::size_t>(j)]);
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
  }
  return CsrMatrix(a.rows(), b.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

value_t identity_residual_fro(const CsrMatrix& c) {
  FSAIC_REQUIRE(c.rows() == c.cols(), "identity residual requires square");
  value_t sum = 0.0;
  std::vector<bool> diag_seen(static_cast<std::size_t>(c.rows()), false);
  for (index_t i = 0; i < c.rows(); ++i) {
    const auto cols_i = c.row_cols(i);
    const auto vals_i = c.row_vals(i);
    for (std::size_t k = 0; k < cols_i.size(); ++k) {
      const value_t target = (cols_i[k] == i) ? 1.0 : 0.0;
      if (cols_i[k] == i) diag_seen[static_cast<std::size_t>(i)] = true;
      const value_t d = vals_i[k] - target;
      sum += d * d;
    }
  }
  for (index_t i = 0; i < c.rows(); ++i) {
    if (!diag_seen[static_cast<std::size_t>(i)]) sum += 1.0;  // missing diag → (0-1)^2
  }
  return std::sqrt(sum);
}

}  // namespace fsaic
