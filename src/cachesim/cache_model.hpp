// Set-associative LRU cache model.
//
// The paper's Figures 3a/5a report L1 data-cache misses on accesses to the
// multiplying vector x during the preconditioning product G^T G x, normalized
// per nonzero of G. On real hardware that comes from PAPI counters; here the
// replay of the exact x-access stream of our SpMV kernels through this model
// produces the same metric. The cache-line size parameter is also what the
// FSAIE/FSAIE-Comm pattern extension keys on (64 B on Skylake/Zen 2, 256 B on
// A64FX), so the model and the preconditioner see one consistent geometry.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fsaic {

struct CacheConfig {
  int line_bytes = 64;
  int size_bytes = 32 * 1024;
  int associativity = 8;

  [[nodiscard]] int num_sets() const {
    return size_bytes / (line_bytes * associativity);
  }
};

class CacheModel {
 public:
  explicit CacheModel(const CacheConfig& config);

  /// Touch one byte address; returns true on hit. Misses fill the line (LRU
  /// eviction).
  bool access(std::uint64_t addr);

  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  [[nodiscard]] std::int64_t accesses() const { return hits_ + misses_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  void reset_stats() {
    hits_ = 0;
    misses_ = 0;
  }

  /// Invalidate all lines and reset statistics.
  void flush();

 private:
  CacheConfig config_;
  int set_count_;
  int line_shift_;
  // tags_[set * associativity + way]; -1 = invalid. stamp_ implements LRU.
  std::vector<std::int64_t> tags_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t clock_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Replay of the x-access stream of y = M x (rows in order, columns in CSR
/// order, x entries 8 bytes apart) through a cache model.
struct XAccessReport {
  std::int64_t accesses = 0;
  std::int64_t misses = 0;

  [[nodiscard]] double miss_rate() const {
    return accesses > 0 ? static_cast<double>(misses) / static_cast<double>(accesses)
                        : 0.0;
  }
};

class CsrMatrix;  // fwd (sparse/csr.hpp)

/// Misses on x during one SpMV with matrix m. The cache is flushed first;
/// `base_addr` offsets the x array (use distinct offsets for distinct
/// vectors when chaining products through one model).
XAccessReport replay_spmv_x_accesses(const CsrMatrix& m, const CacheConfig& config);

/// Same, reusing a caller-managed model without flushing (lets callers chain
/// the G and G^T products of the preconditioning step).
XAccessReport replay_spmv_x_accesses(const CsrMatrix& m, CacheModel& model,
                                     std::uint64_t base_addr = 0);

}  // namespace fsaic
