#include "sparse/sell.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/error.hpp"

namespace fsaic {

namespace {

/// Largest chunk width the kernels stack-allocate accumulators for.
constexpr index_t kMaxChunk = 64;

std::vector<index_t> all_rows_of(const CsrMatrix& a) {
  std::vector<index_t> rows(static_cast<std::size_t>(a.rows()));
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

/// One chunk's worth of the SpMV, shared by every ISA variant below. With C
/// a compile-time constant the lane loop unrolls into straight-line code —
/// C independent accumulator chains fed by unit-stride value/index loads,
/// the shape the SIMD unit (or the auto-vectorizer) consumes directly.
template <index_t C, typename T>
[[gnu::always_inline]] inline void sell_chunk_body(
    index_t c, const offset_t* cp, const index_t* cw, const index_t* ci,
    const T* va, const index_t* perm, index_t stored_rows, const value_t* xp,
    value_t* yp) {
  value_t acc[C] = {};
  const offset_t base = cp[c];
  const index_t width = cw[c];
  for (index_t j = 0; j < width; ++j) {
    const offset_t col_base = base + static_cast<offset_t>(j) * C;
#pragma omp simd
    for (index_t lane = 0; lane < C; ++lane) {
      const auto slot = static_cast<std::size_t>(col_base + lane);
      acc[lane] += static_cast<value_t>(va[slot]) *
                   xp[static_cast<std::size_t>(ci[slot])];
    }
  }
  const index_t first = c * C;
  const index_t lanes = std::min(C, stored_rows - first);
  for (index_t lane = 0; lane < lanes; ++lane) {
    yp[static_cast<std::size_t>(perm[static_cast<std::size_t>(first + lane)])] =
        acc[lane];
  }
}

/// Chunk sweep for the compile-time widths. Measurements favor letting the
/// auto-vectorizer handle this shape over an `target("avx2")` clone with
/// hardware x-gathers: the gathers lose both when the matrix streams from
/// memory (bandwidth-bound) and when it sits in cache (gather latency beats
/// the unrolled scalar loads), so there is no runtime ISA dispatch here.
template <index_t C, typename T>
void sell_chunks(index_t nc, const offset_t* cp, const index_t* cw,
                 const index_t* ci, const T* va, const index_t* perm,
                 index_t stored_rows, const value_t* xp, value_t* yp) {
  for (index_t c = 0; c < nc; ++c) {
    sell_chunk_body<C>(c, cp, cw, ci, va, perm, stored_rows, xp, yp);
  }
}

}  // namespace

offset_t sell_padded_entries(const CsrMatrix& a, std::span<const index_t> rows,
                             index_t chunk, index_t sigma) {
  FSAIC_REQUIRE(chunk >= 1 && chunk <= kMaxChunk,
                "chunk must be in [1, " + std::to_string(kMaxChunk) + "]");
  FSAIC_REQUIRE(sigma >= chunk && sigma % chunk == 0,
                "sigma must be a positive multiple of chunk");
  // Row lengths in subset order, sorted descending per sigma window — the
  // same permutation the constructor's stable_sort produces (only lengths
  // matter for the padded size, so sorting the lengths is equivalent).
  std::vector<index_t> lengths;
  lengths.reserve(rows.size());
  for (const index_t r : rows) {
    FSAIC_REQUIRE(r >= 0 && r < a.rows(), "subset row out of range");
    lengths.push_back(a.pattern().row_nnz(r));
  }
  const auto n = static_cast<index_t>(lengths.size());
  for (index_t w = 0; w < n; w += sigma) {
    std::stable_sort(lengths.begin() + w,
                     lengths.begin() + std::min<index_t>(w + sigma, n),
                     std::greater<index_t>());
  }
  offset_t padded = 0;
  for (index_t c = 0; c < n; c += chunk) {
    index_t width = 0;
    for (index_t lane = c; lane < std::min<index_t>(c + chunk, n); ++lane) {
      width = std::max(width, lengths[static_cast<std::size_t>(lane)]);
    }
    padded += static_cast<offset_t>(width) * static_cast<offset_t>(chunk);
  }
  return padded;
}

SellMatrix::SellMatrix(const CsrMatrix& a, index_t chunk, index_t sigma,
                       bool single_precision)
    : SellMatrix(a, all_rows_of(a), chunk, sigma, single_precision) {}

SellMatrix::SellMatrix(const CsrMatrix& a, std::span<const index_t> rows,
                       index_t chunk, index_t sigma, bool single_precision)
    : rows_(a.rows()), cols_(a.cols()), chunk_(chunk) {
  FSAIC_REQUIRE(chunk >= 1 && chunk <= kMaxChunk,
                "chunk must be in [1, " + std::to_string(kMaxChunk) + "]");
  FSAIC_REQUIRE(sigma >= chunk && sigma % chunk == 0,
                "sigma must be a positive multiple of chunk");

  // Stored rows: the caller's subset, validated ascending and in range so
  // the disjoint-write contract of spmv holds.
  perm_.assign(rows.begin(), rows.end());
  for (std::size_t k = 0; k < perm_.size(); ++k) {
    FSAIC_REQUIRE(perm_[k] >= 0 && perm_[k] < rows_, "subset row out of range");
    FSAIC_REQUIRE(k == 0 || perm_[k] > perm_[k - 1],
                  "subset rows must be ascending and duplicate-free");
  }
  stored_rows_ = static_cast<index_t>(perm_.size());
  for (index_t r = 0; r < stored_rows_; ++r) {
    source_nnz_ += a.pattern().row_nnz(perm_[static_cast<std::size_t>(r)]);
  }

  // Sort rows by descending length inside each sigma window.
  for (index_t w = 0; w < stored_rows_; w += sigma) {
    const auto begin = perm_.begin() + w;
    const auto end = perm_.begin() + std::min<index_t>(w + sigma, stored_rows_);
    std::stable_sort(begin, end, [&](index_t r1, index_t r2) {
      return a.pattern().row_nnz(r1) > a.pattern().row_nnz(r2);
    });
  }

  const index_t num_chunks = (stored_rows_ + chunk - 1) / chunk;
  chunk_ptr_.assign(static_cast<std::size_t>(num_chunks) + 1, 0);
  chunk_width_.assign(static_cast<std::size_t>(num_chunks), 0);
  for (index_t c = 0; c < num_chunks; ++c) {
    index_t width = 0;
    for (index_t lane = 0; lane < chunk; ++lane) {
      const index_t stored = c * chunk + lane;
      if (stored < stored_rows_) {
        width = std::max(width,
                         a.pattern().row_nnz(perm_[static_cast<std::size_t>(stored)]));
      }
    }
    chunk_width_[static_cast<std::size_t>(c)] = width;
    chunk_ptr_[static_cast<std::size_t>(c) + 1] =
        chunk_ptr_[static_cast<std::size_t>(c)] +
        static_cast<offset_t>(width) * static_cast<offset_t>(chunk);
  }

  // Fill column-major per chunk; padding repeats column 0 with value 0 so
  // the gather stays in-bounds without branches.
  col_idx_.assign(static_cast<std::size_t>(chunk_ptr_.back()), 0);
  values_.assign(static_cast<std::size_t>(chunk_ptr_.back()), 0.0);
  for (index_t c = 0; c < num_chunks; ++c) {
    const offset_t base = chunk_ptr_[static_cast<std::size_t>(c)];
    const index_t width = chunk_width_[static_cast<std::size_t>(c)];
    for (index_t lane = 0; lane < chunk; ++lane) {
      const index_t stored = c * chunk + lane;
      if (stored >= stored_rows_) continue;
      const index_t row = perm_[static_cast<std::size_t>(stored)];
      const auto cols = a.row_cols(row);
      const auto vals = a.row_vals(row);
      for (index_t j = 0; j < width; ++j) {
        const auto slot = static_cast<std::size_t>(
            base + static_cast<offset_t>(j) * chunk + lane);
        if (j < static_cast<index_t>(cols.size())) {
          col_idx_[slot] = cols[static_cast<std::size_t>(j)];
          values_[slot] = vals[static_cast<std::size_t>(j)];
        }
      }
    }
  }

  if (single_precision) {
    single_ = true;
    values_f_.resize(values_.size());
    for (std::size_t k = 0; k < values_.size(); ++k) {
      values_f_[k] = static_cast<float>(values_[k]);
    }
  }
}

template <index_t C, typename Values>
void SellMatrix::spmv_fixed(const Values& values, std::span<const value_t> x,
                            std::span<value_t> y) const {
  sell_chunks<C>(num_chunks(), chunk_ptr_.data(), chunk_width_.data(),
                 col_idx_.data(), values.data(), perm_.data(), stored_rows_,
                 x.data(), y.data());
}

template <typename Values>
void SellMatrix::spmv_impl(const Values& values, std::span<const value_t> x,
                           std::span<value_t> y) const {
  FSAIC_REQUIRE(x.size() == static_cast<std::size_t>(cols_), "x size mismatch");
  FSAIC_REQUIRE(y.size() == static_cast<std::size_t>(rows_), "y size mismatch");
  // Dispatch the common SIMD widths to constant-trip-count instantiations;
  // anything else takes the C = kMaxChunk generic shape's sibling below.
  switch (chunk_) {
    case 4:
      return spmv_fixed<4>(values, x, y);
    case 8:
      return spmv_fixed<8>(values, x, y);
    case 16:
      return spmv_fixed<16>(values, x, y);
    case 32:
      return spmv_fixed<32>(values, x, y);
    default:
      break;
  }
  const index_t nc = num_chunks();
  const index_t chunk = chunk_;
  const offset_t* const cp = chunk_ptr_.data();
  const index_t* const cw = chunk_width_.data();
  const index_t* const ci = col_idx_.data();
  const auto* const va = values.data();
  const index_t* const perm = perm_.data();
  const index_t stored_rows = stored_rows_;
  const value_t* const xp = x.data();
  value_t* const yp = y.data();
  for (index_t c = 0; c < nc; ++c) {
    value_t acc[kMaxChunk] = {};
    const offset_t base = cp[c];
    const index_t width = cw[c];
    for (index_t j = 0; j < width; ++j) {
      const offset_t col_base = base + static_cast<offset_t>(j) * chunk;
#pragma omp simd
      for (index_t lane = 0; lane < chunk; ++lane) {
        const auto slot = static_cast<std::size_t>(col_base + lane);
        acc[lane] += static_cast<value_t>(va[slot]) *
                     xp[static_cast<std::size_t>(ci[slot])];
      }
    }
    const index_t first = c * chunk;
    const index_t lanes = std::min(chunk, stored_rows - first);
    for (index_t lane = 0; lane < lanes; ++lane) {
      yp[static_cast<std::size_t>(perm[static_cast<std::size_t>(first + lane)])] =
          acc[lane];
    }
  }
}

void SellMatrix::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  spmv_impl(values_, x, y);
}

void SellMatrix::spmv_single(std::span<const value_t> x,
                             std::span<value_t> y) const {
  FSAIC_REQUIRE(has_single_precision(),
                "SellMatrix was not built with single-precision values");
  spmv_impl(values_f_, x, y);
}

void SellMatrix::spmv_transpose(std::span<const value_t> x,
                                std::span<value_t> y) const {
  FSAIC_REQUIRE(x.size() == static_cast<std::size_t>(rows_), "x size mismatch");
  FSAIC_REQUIRE(y.size() == static_cast<std::size_t>(cols_), "y size mismatch");
  // Serial scatter: concurrent lanes may hit the same output column, so the
  // chunk loop cannot be parallelized the way the forward kernel is.
  const index_t nc = num_chunks();
  for (index_t c = 0; c < nc; ++c) {
    const offset_t base = chunk_ptr_[static_cast<std::size_t>(c)];
    const index_t width = chunk_width_[static_cast<std::size_t>(c)];
    const index_t first = c * chunk_;
    const index_t lanes = std::min(chunk_, stored_rows_ - first);
    for (index_t lane = 0; lane < lanes; ++lane) {
      const value_t xi =
          x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(first + lane)])];
      for (index_t j = 0; j < width; ++j) {
        const auto slot = static_cast<std::size_t>(
            base + static_cast<offset_t>(j) * chunk_ + lane);
        y[static_cast<std::size_t>(col_idx_[slot])] += values_[slot] * xi;
      }
    }
  }
}

}  // namespace fsaic
