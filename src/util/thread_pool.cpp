#include "util/thread_pool.h"

#include "util/logging.h"

namespace hsr::util {

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = resolve_thread_count(threads);
  workers_.reserve(total - 1);
  for (unsigned i = 1; i < total; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::uint64_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || job_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      fn = job_fn_;
    }
    run_indices(*fn);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --workers_running_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run_indices(const std::function<void(std::uint64_t)>& fn) {
  for (;;) {
    const std::uint64_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_n_) return;
    try {
      fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      // Abandon unclaimed indices: every claimer's next fetch_add lands
      // past the end and drains.
      next_index_.store(job_n_, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::parallel_for(std::uint64_t n,
                              const std::function<void(std::uint64_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Sequential path: identical to the pre-pool code, exception semantics
    // included (a throw propagates from the failing index directly).
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    HSR_CHECK_MSG(workers_running_ == 0, "ThreadPool::parallel_for is not reentrant");
    job_fn_ = &fn;
    job_n_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    workers_running_ = static_cast<unsigned>(workers_.size());
    ++job_generation_;
  }
  start_cv_.notify_all();
  run_indices(fn);  // the calling thread works too
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return workers_running_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void parallel_for(unsigned threads, std::uint64_t n,
                  const std::function<void(std::uint64_t)>& fn) {
  ThreadPool pool(threads);
  pool.parallel_for(n, fn);
}

}  // namespace hsr::util
