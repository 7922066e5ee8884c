// Blocking multi-producer multi-consumer queue with close semantics.
//
// This is the delivery primitive under every simulated transport endpoint,
// apartment message loop and thread-pool dispatcher.  pop() blocks until an
// item arrives or the queue is closed *and* drained, which gives clean
// shutdown: close the queue, join the consumers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace causeway {

template <typename T>
class BlockingQueue {
 public:
  // A consumer may pop the last item and its owner destroy the queue
  // while push() is still inside notify_one(); wait such notifies out.
  ~BlockingQueue() {
    while (notifying_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }

  // Returns false if the queue is closed (item dropped).  Notifies after
  // unlocking, so the woken consumer does not wake into a held lock (on a
  // shared CPU that costs two context switches per item).
  bool push(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      notifying_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_one();
    notifying_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  // Blocks until an item is available or the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Notifies under the lock: the closer's owner may join the consumers and
  // destroy the queue as soon as they return.
  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_{false};
  std::atomic<std::size_t> notifying_{0};  // push() calls inside notify_one
};

}  // namespace causeway
