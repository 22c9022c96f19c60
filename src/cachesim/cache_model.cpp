#include "cachesim/cache_model.hpp"

#include <algorithm>
#include <bit>

#include "sparse/csr.hpp"

namespace fsaic {

CacheModel::CacheModel(const CacheConfig& config) : config_(config) {
  FSAIC_REQUIRE(config.line_bytes > 0 &&
                    std::has_single_bit(static_cast<unsigned>(config.line_bytes)),
                "line size must be a positive power of two");
  FSAIC_REQUIRE(config.associativity > 0, "associativity must be positive");
  FSAIC_REQUIRE(config.size_bytes >= config.line_bytes * config.associativity,
                "cache must hold at least one set");
  FSAIC_REQUIRE(config.size_bytes % (config.line_bytes * config.associativity) == 0,
                "cache size must be a whole number of sets");
  set_count_ = config.num_sets();
  line_shift_ = std::countr_zero(static_cast<unsigned>(config.line_bytes));
  tags_.assign(static_cast<std::size_t>(set_count_) *
                   static_cast<std::size_t>(config.associativity),
               -1);
  stamp_.assign(tags_.size(), 0);
}

bool CacheModel::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const auto set = static_cast<std::size_t>(line % static_cast<std::uint64_t>(set_count_));
  const auto tag = static_cast<std::int64_t>(line);
  const std::size_t base = set * static_cast<std::size_t>(config_.associativity);
  ++clock_;
  std::size_t lru_way = 0;
  std::uint64_t lru_stamp = ~std::uint64_t{0};
  for (int w = 0; w < config_.associativity; ++w) {
    const std::size_t slot = base + static_cast<std::size_t>(w);
    if (tags_[slot] == tag) {
      stamp_[slot] = clock_;
      ++hits_;
      return true;
    }
    if (stamp_[slot] < lru_stamp) {
      lru_stamp = stamp_[slot];
      lru_way = slot;
    }
  }
  tags_[lru_way] = tag;
  stamp_[lru_way] = clock_;
  ++misses_;
  return false;
}

void CacheModel::flush() {
  std::fill(tags_.begin(), tags_.end(), -1);
  std::fill(stamp_.begin(), stamp_.end(), 0);
  clock_ = 0;
  reset_stats();
}

XAccessReport replay_spmv_x_accesses(const CsrMatrix& m, const CacheConfig& config) {
  CacheModel model(config);
  return replay_spmv_x_accesses(m, model);
}

XAccessReport replay_spmv_x_accesses(const CsrMatrix& m, CacheModel& model,
                                     std::uint64_t base_addr) {
  const std::int64_t misses_before = model.misses();
  const std::int64_t accesses_before = model.accesses();
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j : m.row_cols(i)) {
      model.access(base_addr +
                   static_cast<std::uint64_t>(j) * sizeof(value_t));
    }
  }
  XAccessReport report;
  report.accesses = model.accesses() - accesses_before;
  report.misses = model.misses() - misses_before;
  return report;
}

}  // namespace fsaic
