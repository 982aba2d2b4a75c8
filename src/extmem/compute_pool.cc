#include "extmem/compute_pool.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#ifndef PR_SET_TIMERSLACK
#define PR_SET_TIMERSLACK 29
#endif
#endif

namespace oem {

ComputePool::ComputePool(std::size_t threads)
    : threads_(std::max<std::size_t>(1, threads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { lane_loop(); });
}

ComputePool::~ComputePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ComputePool::run_one(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  try {
    task();
  } catch (...) {
    lock.lock();
    if (!error_) error_ = std::current_exception();
    if (--pending_ == 0) done_cv_.notify_all();
    return true;
  }
  lock.lock();
  if (--pending_ == 0) done_cv_.notify_all();
  return true;
}

void ComputePool::lane_loop() {
#if defined(__linux__)
  // Default timer slack (50us) would blur the sub-millisecond sleeps the
  // compute model (ClientParams::compute_model_ns_per_block) relies on.
  ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty() && stop_) return;
    run_one(lock);
  }
}

void ComputePool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Inline fallback: same exception semantics as the pooled path (surface
    // at wait()), so call sites need exactly one error-handling shape.
    try {
      task();
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ComputePool::wait() {
  if (workers_.empty()) {
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  // The master is a lane too: drain the queue alongside the workers instead
  // of blocking -- mandatory for liveness when threads_-1 == 0 elsewhere,
  // and a real lane of throughput on loaded hosts.
  while (pending_ > 0) {
    if (!run_one(lock)) done_cv_.wait(lock, [this] { return pending_ == 0 || !queue_.empty(); });
  }
  if (error_) {
    std::exception_ptr e = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ComputePool::parallel_for(std::size_t count, std::size_t grain,
                               const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  std::size_t g = grain != 0 ? grain : (count + threads_ - 1) / threads_;
  g = std::max<std::size_t>(1, g);
  if (workers_.empty() || g >= count) {
    // One chunk, or nobody to share with: plain loop on the master, no queue
    // round trip (exceptions propagate directly -- there is no barrier to
    // defer them past).
    for (std::size_t first = 0; first < count; first += g)
      fn(first, std::min(count, first + g));
    return;
  }
  for (std::size_t first = 0; first < count; first += g) {
    const std::size_t last = std::min(count, first + g);
    submit([&fn, first, last] { fn(first, last); });
  }
  wait();
}

}  // namespace oem
