// A small fixed-size thread pool with one primitive: a blocking
// parallel_for over an index range.
//
// Built for the experiment runner's corpus sharding: every index is an
// independent, fork-seeded simulation whose result is written into a
// pre-sized output slot, so work-stealing order cannot perturb results.
// The pool deliberately has no task queue, futures, or detached work —
// determinism reviews only need to check the loop body for shared state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hsr::util {

// Resolves a requested worker count: 0 means "all hardware threads"
// (std::thread::hardware_concurrency(), at least 1).
unsigned resolve_thread_count(unsigned requested);

class ThreadPool {
 public:
  // Spawns `threads - 1` workers (the calling thread participates in every
  // parallel_for, so `threads` is the total parallelism). 0 = hardware
  // concurrency. A pool of 1 spawns no threads at all: parallel_for then
  // degenerates to a plain sequential loop on the caller.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism, including the calling thread.
  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  // Runs fn(0) .. fn(n-1) across the pool and blocks until all calls
  // returned. Indices are claimed dynamically (atomic counter), so `fn` must
  // be safe to call concurrently for distinct indices; each index runs
  // exactly once. If any call throws, remaining unclaimed indices are
  // abandoned and the first exception is rethrown here after the join.
  // Not reentrant: `fn` must not call back into the same pool.
  void parallel_for(std::uint64_t n, const std::function<void(std::uint64_t)>& fn);

 private:
  void worker_loop();
  // Claims indices of the current job until exhausted (or failed).
  void run_indices(const std::function<void(std::uint64_t)>& fn);

  std::mutex mu_;
  std::condition_variable start_cv_;  // a new job was published
  std::condition_variable done_cv_;   // all workers finished the job
  std::uint64_t job_generation_ = 0;  // bumped per published job
  const std::function<void(std::uint64_t)>* job_fn_ = nullptr;
  std::uint64_t job_n_ = 0;
  std::atomic<std::uint64_t> next_index_{0};
  unsigned workers_running_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// One-shot convenience: builds a pool of `threads` for a single loop.
void parallel_for(unsigned threads, std::uint64_t n,
                  const std::function<void(std::uint64_t)>& fn);

}  // namespace hsr::util
