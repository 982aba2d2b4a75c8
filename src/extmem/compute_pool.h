// ComputePool: the compute plane's worker pool.
//
// The I/O plane (BlockDevice + AsyncBackend) already overlaps storage with
// computation; this pool parallelizes the computation itself.  N lanes total:
// the calling ("master") thread plus N-1 persistent workers chewing a shared
// task queue.  The division of labor is strict and load-bearing for
// obliviousness: ONLY the master describes passes, draws nonces, submits
// I/O and records trace/stat events -- workers touch nothing but the private
// record buffers handed to them.  The device trace is therefore byte-identical
// at any lane count (pinned by the io_engine trace matrix).
//
// wait() is a barrier: the master helps drain the queue (so a 1-core host
// still makes progress and an N-lane pool never deadlocks on itself), then
// blocks until in-flight tasks retire.  The first exception a task throws is
// captured and rethrown from wait(); remaining tasks still run, so buffers
// the tasks borrow stay unreferenced after the barrier either way.
//
// threads <= 1 is the inline fallback: submit() runs the task on the calling
// thread immediately (exceptions still surface at wait(), keeping one set of
// semantics), and parallel_for degenerates to the plain serial loop.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace oem {

class ComputePool {
 public:
  /// `threads` counts LANES, master included: 0 and 1 both mean "no workers,
  /// run inline"; N spawns N-1 worker threads.
  explicit ComputePool(std::size_t threads = 1);
  ~ComputePool();

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  /// Total lanes (>= 1), master included.
  std::size_t threads() const { return threads_; }

  /// Enqueue one task (inline when the pool has no workers).  Tasks may run
  /// in any order on any lane; anything they touch must be theirs alone.
  void submit(std::function<void()> task);

  /// Barrier: run/await every submitted task, then rethrow the first
  /// exception any of them threw (the pool stays usable afterwards).
  void wait();

  /// Split [0, count) into chunks of `grain` (0 = auto: one chunk per lane)
  /// and run fn(first, last) on each, returning after all chunks retired --
  /// submit + wait in one call.  A single chunk runs inline on the master
  /// with no queue round trip, so serial call sites pay ~nothing.
  void parallel_for(std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void lane_loop();
  /// Pop and run one task.  Called with `lock` held; releases it around the
  /// task body.  Returns false when the queue was empty.
  bool run_one(std::unique_lock<std::mutex>& lock);

  const std::size_t threads_;  // lanes, master included (>= 1)
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a task or stop_ appeared"
  std::condition_variable done_cv_;  // master: "pending_ hit zero"
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;  // queued + currently running tasks
  std::exception_ptr error_;  // first failure since the last wait()
  bool stop_ = false;
};

}  // namespace oem
