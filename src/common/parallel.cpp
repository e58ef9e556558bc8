#include "common/parallel.h"

#include <cstdlib>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.h"

namespace dpipe {

namespace {

thread_local bool t_in_parallel_region = false;

/// Marks the current thread as inside a batch for the guard's lifetime.
struct ParallelRegionGuard {
  bool previous = t_in_parallel_region;
  ParallelRegionGuard() { t_in_parallel_region = true; }
  ~ParallelRegionGuard() { t_in_parallel_region = previous; }
};

}  // namespace

bool in_parallel_region() { return t_in_parallel_region; }

int default_thread_count() {
  if (const char* env = std::getenv("DPIPE_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) {
      return parsed;
    }
  }
#if defined(__linux__)
  // The CPUs this process may run on: a taskset-pinned process gets a
  // pool no wider than its pin.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
      CPU_COUNT(&allowed) >= 1) {
    return CPU_COUNT(&allowed);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  const int resolved = num_threads <= 0 ? default_thread_count() : num_threads;
  workers_.reserve(static_cast<std::size_t>(resolved - 1));
  for (int i = 1; i < resolved; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && epoch_ != seen_epoch);
      });
      if (stop_) {
        return;
      }
      seen_epoch = epoch_;
      batch = batch_;
    }
    run_batch(batch);
  }
}

void ThreadPool::run_batch(const std::shared_ptr<Batch>& batch) {
  const ParallelRegionGuard region_guard;
  for (;;) {
    const std::size_t index = batch->next.fetch_add(1);
    if (index >= batch->total) {
      return;
    }
    if (!batch->cancelled.load()) {
      try {
        (*batch->fn)(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (batch->error == nullptr) {
          batch->error = std::current_exception();
        }
        batch->cancelled.store(true);
      }
    }
    if (batch->completed.fetch_add(1) + 1 == batch->total) {
      // Wake the caller; the empty critical section orders the wakeup
      // after the caller entered its wait.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->total = n;
  batch->fn = &fn;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DPIPE_REQUIRE(batch_ == nullptr, "parallel_for is not reentrant");
    batch_ = batch;
    ++epoch_;
  }
  work_cv_.notify_all();
  run_batch(batch);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock,
                  [&] { return batch->completed.load() == batch->total; });
    batch_ = nullptr;
    error = batch->error;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace dpipe
