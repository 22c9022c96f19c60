// Sharded, SLO-aware work queue: the admission boundary and dispatch layer
// of the solve service.
//
// Backpressure: the scheduler holds at most `capacity` items across all
// lanes. try_push never blocks; it fails at once when the scheduler is full
// or closed, and the service turns that failure into a reject-with-reason
// response. Workers block in pop until an item arrives or the scheduler is
// closed; after close, queued items still drain, then pop returns empty.
//
// Sharding makes multi-RHS batching systematic: every item carries a shard
// id (the service uses `hash(batch_key) % workers`), each worker pops from
// its own lane first, and only steals from other lanes when its own is
// empty. Same-operator requests therefore land on the same worker, which
// batches them together and keeps that worker's slice of the factor cache
// hot.
//
// Within a lane, dequeue order is not FIFO but SLO-aware:
//   1. higher `priority` first (priority lanes),
//   2. among equal priorities, deadlined items before deadline-free ones,
//      earliest absolute deadline first (EDF),
//   3. ties broken by admission sequence (FIFO), which keeps the order
//      deterministic for any mix.
// drain_if — the batching hook — returns matches across all lanes in
// admission-sequence order, so batch composition (and with it every solve
// result) is independent of shard count and steal timing.
//
// Traits requirements (static, over const T&): shard() -> std::size_t,
// priority() -> int, deadline_us() -> double (absolute; < 0 = none),
// seq() -> std::int64_t (unique, ascending admission order).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace fsaic {

template <typename T, typename Traits>
class ShardedScheduler {
 public:
  /// `capacity` bounds the total item count across all lanes. `shards` >= 1
  /// (0 is treated as 1).
  ShardedScheduler(std::size_t capacity, std::size_t shards)
      : capacity_(capacity), lanes_(shards == 0 ? 1 : shards) {}

  /// Non-blocking enqueue into the item's shard lane (mod the lane count);
  /// false when the scheduler is full or closed.
  bool try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || size_ >= capacity_) return false;
      lanes_[Traits::shard(item) % lanes_.size()].push_back(std::move(item));
      ++size_;
    }
    ready_.notify_all();
    return true;
  }

  /// Blocking dequeue for worker `shard`: the best item of its own lane, or
  /// — when that lane is empty — the best item across all lanes (steal).
  /// Empty optional once the scheduler is closed and drained.
  std::optional<T> pop(std::size_t shard) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return std::nullopt;
    auto& own = lanes_[shard % lanes_.size()];
    std::deque<T>* lane = &own;
    if (own.empty()) {
      lane = nullptr;
      T* best = nullptr;
      for (auto& l : lanes_) {
        for (auto& item : l) {
          if (best == nullptr || before(item, *best)) {
            best = &item;
            lane = &l;
          }
        }
      }
    }
    auto it = lane->begin();
    for (auto cur = lane->begin(); cur != lane->end(); ++cur) {
      if (before(*cur, *it)) it = cur;
    }
    T item = std::move(*it);
    lane->erase(it);
    --size_;
    return item;
  }

  /// Remove and return every queued item satisfying `pred` (across all
  /// lanes) in admission-sequence order; non-matching items stay queued.
  template <typename Pred>
  std::vector<T> drain_if(Pred pred) {
    std::vector<T> out;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& lane : lanes_) {
      std::deque<T> keep;
      for (auto& item : lane) {
        if (pred(item)) {
          out.push_back(std::move(item));
        } else {
          keep.push_back(std::move(item));
        }
      }
      lane.swap(keep);
    }
    size_ -= out.size();
    std::sort(out.begin(), out.end(), [](const T& a, const T& b) {
      return Traits::seq(a) < Traits::seq(b);
    });
    return out;
  }

  /// Wake all blocked consumers; subsequent pushes fail. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t shards() const { return lanes_.size(); }

 private:
  /// Strict weak order "a should be dequeued before b".
  static bool before(const T& a, const T& b) {
    if (Traits::priority(a) != Traits::priority(b)) {
      return Traits::priority(a) > Traits::priority(b);
    }
    const double da = Traits::deadline_us(a);
    const double db = Traits::deadline_us(b);
    const bool ha = da >= 0.0;
    const bool hb = db >= 0.0;
    if (ha != hb) return ha;  // deadlined work outranks deadline-free work
    if (ha && da != db) return da < db;
    return Traits::seq(a) < Traits::seq(b);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<std::deque<T>> lanes_;
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace fsaic
