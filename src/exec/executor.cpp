#include "exec/executor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fsaic {

void tree_combine_step(std::span<value_t> partials, rank_t nranks, int width,
                       rank_t stride, rank_t p) {
  if (p % (2 * stride) != 0 || p + stride >= nranks) return;
  const auto dst = static_cast<std::size_t>(p) * static_cast<std::size_t>(width);
  const auto src =
      static_cast<std::size_t>(p + stride) * static_cast<std::size_t>(width);
  for (int c = 0; c < width; ++c) {
    partials[dst + static_cast<std::size_t>(c)] +=
        partials[src + static_cast<std::size_t>(c)];
  }
}

void tree_reduce_serial(std::span<value_t> partials, int width,
                        std::span<value_t> out) {
  FSAIC_REQUIRE(width >= 1 && partials.size() % static_cast<std::size_t>(width) == 0,
                "allreduce partials must be nranks rows of width values");
  FSAIC_REQUIRE(out.size() == static_cast<std::size_t>(width),
                "allreduce output must hold width values");
  const auto nranks =
      static_cast<rank_t>(partials.size() / static_cast<std::size_t>(width));
  for (rank_t stride = 1; stride < nranks; stride *= 2) {
    for (rank_t p = 0; p < nranks; p += 2 * stride) {
      tree_combine_step(partials, nranks, width, stride, p);
    }
  }
  for (int c = 0; c < width; ++c) {
    out[static_cast<std::size_t>(c)] =
        nranks > 0 ? partials[static_cast<std::size_t>(c)] : 0.0;
  }
}

void AsyncAllreduce::wait(std::span<value_t> out) {
  FSAIC_REQUIRE(state_ != nullptr, "no asynchronous allreduce in flight");
  FSAIC_REQUIRE(out.size() == static_cast<std::size_t>(state_->width),
                "allreduce output must hold width values");
  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
  }
  std::copy(state_->result.begin(), state_->result.end(), out.begin());
  state_.reset();
}

void SeqExecutor::parallel_ranks(rank_t nranks,
                                 const std::function<void(rank_t)>& f) {
  for (rank_t p = 0; p < nranks; ++p) {
    f(p);
  }
  ++supersteps_;
}

void SeqExecutor::parallel_ranks_phased(rank_t nranks,
                                        const std::function<void(rank_t)>& post,
                                        const std::function<void(rank_t)>& work) {
  for (rank_t p = 0; p < nranks; ++p) {
    post(p);
  }
  for (rank_t p = 0; p < nranks; ++p) {
    work(p);
  }
  ++supersteps_;
}

void SeqExecutor::allreduce_sum(std::span<value_t> partials, int width,
                                std::span<value_t> out) {
  tree_reduce_serial(partials, width, out);
  ++allreduces_;
}

AsyncAllreduce SeqExecutor::allreduce_begin(std::vector<value_t> partials,
                                            int width) {
  // No team to overlap with: reduce eagerly, wait() returns immediately.
  AsyncAllreduce handle;
  handle.state_ = std::make_shared<AsyncAllreduce::State>();
  handle.state_->width = width;
  handle.state_->partials = std::move(partials);
  handle.state_->result.assign(static_cast<std::size_t>(width), 0.0);
  tree_reduce_serial(handle.state_->partials, width, handle.state_->result);
  handle.state_->done = true;
  ++allreduces_;
  return handle;
}

void SeqExecutor::parallel_for(index_t n,
                               const std::function<void(index_t, int)>& f) {
  for (index_t i = 0; i < n; ++i) {
    f(i, 0);
  }
  ++supersteps_;
}

ExecStats SeqExecutor::stats() const {
  return {1, supersteps_, allreduces_, {}};
}

}  // namespace fsaic
