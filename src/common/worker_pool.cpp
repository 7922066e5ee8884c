#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>

namespace causeway {

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool([] {
    const std::size_t hw = std::thread::hardware_concurrency();
    // Cap: past ~16 threads the analysis phases are memory-bound, and the
    // pool must stay polite inside bigger hosts running many processes.
    const std::size_t capped = std::clamp<std::size_t>(hw, 1, 16);
    return capped - 1;
  }());
  return pool;
}

WorkerPool::WorkerPool(std::size_t helper_threads) {
  helpers_.reserve(helper_threads);
  for (std::size_t i = 0; i < helper_threads; ++i) {
    helpers_.emplace_back([this] { helper_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : helpers_) t.join();
}

void WorkerPool::run_slice(const std::function<void(std::size_t)>& fn,
                           std::size_t n) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void WorkerPool::helper_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = job_id_;
      if (!live_) continue;  // woke after the job ended: nothing to join
      ++joined_;
      fn = fn_;
      n = n_;
    }
    run_slice(*fn, n);
    {
      std::lock_guard lock(mu_);
      if (--joined_ == 0) cv_done_.notify_all();
    }
  }
}

void WorkerPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (helpers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard call_lock(call_mu_);
  error_ = nullptr;
  next_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    fn_ = &fn;
    n_ = n;
    live_ = true;
    ++job_id_;
  }
  cv_start_.notify_all();
  run_slice(fn, n);
  // Every item is claimed: close the job to late wakers, then wait only
  // for the helpers still finishing items they claimed.
  std::unique_lock lock(mu_);
  live_ = false;
  cv_done_.wait(lock, [&] { return joined_ == 0; });
  if (error_) std::rethrow_exception(error_);
}

}  // namespace causeway
