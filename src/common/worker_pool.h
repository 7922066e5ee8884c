// A small persistent worker pool for the analysis tier's data-parallel
// phases.
//
// Several analysis stages fan independent work items over threads: the DSCG
// rebuilds dirty chains in parallel, the sharded LogDatabase ingests record
// partitions in parallel, and the trace reader decodes complete segments in
// parallel.  Before this pool each site spawned (and joined) fresh
// std::threads per batch, which is wasteful at streaming cadence -- a drain
// epoch can arrive every few milliseconds, and thread creation alone costs
// a meaningful fraction of that budget.
//
// WorkerPool keeps the threads alive across batches.  parallel_for(n, fn)
// runs fn(0..n-1) with the calling thread participating, distributes items
// via one shared atomic cursor (items are expected to be coarse -- a chain
// rebuild, a shard partition, a trace segment), and returns when every item
// finished.  A helper counts itself into a job only when it wakes while the
// job is still live, so the caller waits for claimed items and for helpers
// that joined, never for a helper still asleep; one that wakes after the
// job ended skips it.  The first exception a worker catches is rethrown on
// the caller.  Calls are serialized: concurrent parallel_for invocations
// queue behind one another rather than interleave, which keeps the pool
// safe to share process-wide (WorkerPool::shared()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace causeway {

class WorkerPool {
 public:
  // The process-wide pool: hardware_concurrency - 1 helper threads (the
  // caller is the final worker), started lazily on first use.
  static WorkerPool& shared();

  explicit WorkerPool(std::size_t helper_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Helpers + the calling thread.
  std::size_t concurrency() const { return helpers_.size() + 1; }

  // Runs fn(i) for every i in [0, n), caller participating.  Returns when
  // all n items completed; rethrows the first exception any item threw.
  // Serialized against concurrent calls.  Never call from inside a pool
  // item (it would deadlock on the call lock).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void helper_loop();
  void run_slice(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::vector<std::thread> helpers_;

  std::mutex call_mu_;  // serializes parallel_for invocations

  std::mutex mu_;  // guards the job slot below
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t job_id_{0};
  const std::function<void(std::size_t)>* fn_{nullptr};
  std::size_t n_{0};
  bool live_{false};       // helpers may still join the current job
  std::size_t joined_{0};  // helpers inside the current job
  bool stop_{false};
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
};

}  // namespace causeway
