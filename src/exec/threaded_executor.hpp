// Threaded executor: simulated ranks run concurrently on the persistent
// SPMD team. Ranks are block-distributed over the team, so with nthreads >=
// nranks every rank has its own std::thread; with fewer threads each thread
// steps through a contiguous slice of ranks per superstep.
//
// The allreduce runs the shared fixed-order reduction tree as one superstep
// per tree level, with a real barrier between levels — the threaded and
// sequential executors perform the exact same additions in the exact same
// pairing, so results are bit-identical (see executor.hpp).
#pragma once

#include <deque>
#include <memory>
#include <thread>

#include "exec/executor.hpp"
#include "exec/spmd_engine.hpp"

namespace fsaic {

class ThreadedExecutor final : public Executor {
 public:
  explicit ThreadedExecutor(int nthreads);
  ~ThreadedExecutor() override;

  [[nodiscard]] bool threaded() const override { return true; }
  [[nodiscard]] int nthreads() const override { return engine_.nthreads(); }
  void parallel_ranks(rank_t nranks,
                      const std::function<void(rank_t)>& f) override;
  void parallel_ranks_phased(rank_t nranks,
                             const std::function<void(rank_t)>& post,
                             const std::function<void(rank_t)>& work) override;
  void allreduce_sum(std::span<value_t> partials, int width,
                     std::span<value_t> out) override;
  /// The asynchronous reduction runs on a lazily-started background
  /// combiner thread (not on the SPMD team), executing the same serial
  /// fixed-order tree as the sequential executor — so it genuinely
  /// progresses while the team runs supersteps, and its result is
  /// bit-identical to a blocking allreduce of the same partials.
  AsyncAllreduce allreduce_begin(std::vector<value_t> partials,
                                 int width) override;
  /// Work items are claimed by the team in contiguous chunks off a shared
  /// atomic cursor (a dynamic schedule), so irregular per-row costs
  /// load-balance; `slot` is the worker id.
  void parallel_for(index_t n,
                    const std::function<void(index_t, int)>& f) override;
  [[nodiscard]] int parallel_for_width() const override;
  [[nodiscard]] ExecStats stats() const override;

 private:
  void ensure_combiner();

  SpmdEngine engine_;
  std::uint64_t allreduces_ = 0;

  // Background combiner for asynchronous allreduces: a queue of in-flight
  // reductions drained by one worker thread in submission order.
  std::thread combiner_;
  std::mutex combiner_mutex_;
  std::condition_variable combiner_cv_;
  std::deque<std::shared_ptr<AsyncAllreduce::State>> combiner_queue_;
  bool combiner_stop_ = false;
};

}  // namespace fsaic
