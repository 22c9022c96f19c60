// Two-tier (RAM LRU + optional disk store) cache of built FSAI factors,
// keyed by matrix content.
//
// Setup is the expensive phase of the FSAI family (see bench/amortization);
// a serving workload that sees the same operator for many right-hand sides
// should pay it once — across requests *and* across process restarts. The
// key combines the matrix fingerprint (dims + nnz + content hash of the
// partition-permuted system) with a build-configuration string (method,
// filter, strategy, rank count), so same-shape matrices with different
// values, or the same matrix built with different options, occupy distinct
// slots. Entries are shared_ptr so an evicted factor stays alive while an
// in-flight batch is still solving with it.
//
// Disk tier (enabled by a non-empty `store_dir`): every insert is persisted
// write-through as a fingerprint-addressed factor_io V2 file
// (`<content_hash>-<config_hash>.factor`), so a restarted process reloads
// factors the previous one built. A RAM miss transparently attempts the
// store; a loaded file whose embedded fingerprint does not match the key,
// or that is truncated/corrupt, is deleted and counted as a load failure —
// the caller sees a plain miss and rebuilds fresh. All file IO happens
// outside the cache mutex, so concurrent hits never wait on a spill.
// Factor files round-trip doubles bit-exactly, so a disk-reloaded factor
// produces residual histories identical to the RAM-cached and
// freshly-built ones.
//
// The store is optionally size-capped (`store_max_bytes`, 0 = unlimited):
// after each successful persist the total on-disk footprint is reconciled
// against the cap and the least-recently-accessed factor files are deleted
// (never the one just written) until the store fits. Disk-tier reloads
// count as accesses, so hot factors survive the cap while stale ones age
// out; on restart recency is seeded from file modification times.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dist/layout.hpp"
#include "sparse/csr.hpp"
#include "sparse/fingerprint.hpp"

namespace fsaic {

/// A built factor ready for reuse: distribute g over `layout` to recover the
/// G / G^T pair the preconditioner applies.
struct CachedFactor {
  CsrMatrix g;
  Layout layout;
  double build_seconds = 0.0;  ///< wall time of the original build (0 when
                               ///< reloaded from the disk store)
};

/// Where a cache lookup was satisfied.
enum class CacheTier {
  Ram,   ///< resident in the LRU
  Disk,  ///< reloaded from the factor store
  Miss,  ///< not cached anywhere — caller builds fresh
};

struct FactorCacheStats {
  std::int64_t hits = 0;       ///< RAM-tier hits
  std::int64_t misses = 0;     ///< full misses (neither tier)
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t disk_hits = 0;      ///< RAM misses satisfied by the store
  std::int64_t spills = 0;         ///< factor files written to the store
  std::int64_t load_failures = 0;  ///< corrupt/mismatched store files
  std::int64_t store_evictions = 0;  ///< store files deleted by the size cap
};

class FactorCache {
 public:
  /// `capacity` = maximum number of resident factors; 0 disables caching
  /// (every get misses, puts are dropped). A non-empty `store_dir` enables
  /// the disk tier; the directory is created on first use.
  /// `store_max_bytes` caps the disk store's total footprint (0 =
  /// unlimited): exceeding it after a persist evicts the
  /// least-recently-accessed factor files.
  explicit FactorCache(std::size_t capacity, std::string store_dir = "",
                       std::size_t store_max_bytes = 0)
      : capacity_(capacity),
        store_dir_(std::move(store_dir)),
        store_max_bytes_(store_max_bytes) {}

  struct Key {
    MatrixFingerprint fingerprint;
    std::string config;  ///< build options, e.g. "fsaie-comm|0.01|dynamic|8"

    bool operator==(const Key&) const = default;
    bool operator<(const Key& o) const {
      const auto tie = [](const Key& k) {
        return std::tie(k.config, k.fingerprint.rows, k.fingerprint.cols,
                        k.fingerprint.nnz, k.fingerprint.content_hash);
      };
      return tie(*this) < tie(o);
    }
  };

  /// Look up a factor; null on miss. A RAM hit moves the entry to
  /// most-recently-used; a RAM miss with a store configured attempts a disk
  /// reload (re-inserting the factor into RAM on success). When `tier` is
  /// non-null it reports where the lookup was satisfied. Counts into stats
  /// either way.
  [[nodiscard]] std::shared_ptr<const CachedFactor> get(
      const Key& key, CacheTier* tier = nullptr);

  /// Insert (or refresh) a factor; evicts the least-recently-used entry
  /// when at capacity. With a store configured the factor is persisted
  /// write-through (before insertion, outside the mutex), so it survives
  /// process death regardless of later evictions; an entry whose persist
  /// failed is written again when the LRU spills it.
  void put(const Key& key, std::shared_ptr<const CachedFactor> factor);

  [[nodiscard]] FactorCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::string& store_dir() const { return store_dir_; }
  [[nodiscard]] std::size_t store_max_bytes() const {
    return store_max_bytes_;
  }

  /// The store file a key maps to ("" without a store) — exposed so tests
  /// can corrupt/delete specific entries.
  [[nodiscard]] std::string store_path(const Key& key) const;

  /// Drop the RAM tier (store files are left in place — a subsequent get
  /// exercises the disk-reload path, which is what the cold/warm-restart
  /// tests do).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const CachedFactor> factor;
    std::list<Key>::iterator lru_pos;  ///< position in lru_ (front = newest)
    bool persisted = false;            ///< already on disk (skip spill write)
  };

  /// Bookkeeping for one on-disk factor file (size-cap enforcement).
  struct StoreEntry {
    std::uintmax_t bytes = 0;
    std::uint64_t last_access = 0;  ///< monotone sequence; larger = fresher
  };

  /// Write one factor file atomically (tmp + rename). Returns success; never
  /// throws. Called outside the mutex. On success reconciles the store
  /// against `store_max_bytes_`.
  bool persist(const Key& key, const CachedFactor& factor);

  /// Populate the store index from a directory scan, seeding recency from
  /// file mtimes. Requires `store_mutex_` held.
  void ensure_store_index_locked();
  /// Mark a store file as just accessed (disk-tier reload).
  void note_store_access(const std::string& path);
  /// Record a freshly persisted file, then evict least-recently-accessed
  /// files (never `path` itself) while the store exceeds the cap.
  void note_store_write(const std::string& path);

  const std::size_t capacity_;
  const std::string store_dir_;
  const std::size_t store_max_bytes_ = 0;  ///< 0 = unlimited
  mutable std::mutex mutex_;
  std::list<Key> lru_;
  std::map<Key, Entry> entries_;
  FactorCacheStats stats_;
  std::atomic<std::uint64_t> tmp_seq_{0};  ///< unique temp-file suffixes
  std::mutex store_mutex_;  ///< guards the store index (never nested inside
                            ///< `mutex_`)
  bool store_index_ready_ = false;
  std::uint64_t store_seq_ = 0;
  std::map<std::string, StoreEntry> store_index_;  ///< path -> size/recency
};

}  // namespace fsaic
