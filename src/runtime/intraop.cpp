#include "runtime/intraop.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "common/parallel.h"
#include "runtime/kernels.h"

namespace dpipe::rt {

namespace detail {

namespace {

/// Work below this cost (caller units: FLOPs for matmuls, bytes moved for
/// elementwise sweeps) runs single-threaded; the threshold depends only on
/// the caller's shape, so the dispatch decision is deterministic.
constexpr std::int64_t kParallelCostThreshold = 1 << 20;

/// The shared intra-op pool. parallel_for is not reentrant and independent
/// callers (trainers, serial waves, tests) may enter concurrently, so entry
/// is guarded by a try-lock. A loser only degrades to the caller-inline
/// loop when the pool is *genuinely busy* (a fan-out batch is in flight,
/// tracked by fanout_active); a transient loss — the holder is still
/// between locking and fanning out, or merely rebuilding the pool — blocks
/// briefly for its own turn instead of silently serializing. Threads
/// already inside any ThreadPool batch (in_parallel_region) always inline:
/// blocking there could deadlock the pool on itself.
struct IntraOpPool {
  std::mutex run_mutex;
  std::atomic<bool> fanout_active{false};  ///< A batch is in flight.
  std::mutex state_mutex;
  std::unique_ptr<ThreadPool> pool;  ///< Guarded by state_mutex.
  int requested_threads = 0;         ///< <= 0: default_thread_count().
};

IntraOpPool& intraop_pool() {
  static IntraOpPool instance;
  return instance;
}

ThreadPool* acquire_pool() {
  IntraOpPool& kp = intraop_pool();
  const std::lock_guard<std::mutex> lock(kp.state_mutex);
  if (kp.pool == nullptr) {
    kp.pool = std::make_unique<ThreadPool>(kp.requested_threads);
  }
  return kp.pool.get();
}

std::atomic<bool> g_profile{false};
std::atomic<std::uint64_t> g_matmul_ns{0};
std::atomic<std::uint64_t> g_matmul_calls{0};
std::atomic<std::uint64_t> g_eltwise_ns{0};
std::atomic<std::uint64_t> g_eltwise_calls{0};

}  // namespace

void intraop_run_workers(int num_workers, void (*fn)(void* ctx, int worker),
                         void* ctx) {
  if (num_workers > 1 && !in_parallel_region()) {
    IntraOpPool& kp = intraop_pool();
    std::unique_lock<std::mutex> lock(kp.run_mutex, std::try_to_lock);
    if (!lock.owns_lock() &&
        !kp.fanout_active.load(std::memory_order_acquire)) {
      // Transient contention, not a running batch: wait for our turn on
      // the pool rather than degrading to the single-threaded loop.
      lock.lock();
    }
    if (lock.owns_lock()) {
      ThreadPool* pool = acquire_pool();
      if (pool->size() > 1) {
        kp.fanout_active.store(true, std::memory_order_release);
        try {
          pool->parallel_for(
              static_cast<std::size_t>(num_workers),
              [&](std::size_t w) { fn(ctx, static_cast<int>(w)); });
        } catch (...) {
          kp.fanout_active.store(false, std::memory_order_release);
          throw;
        }
        kp.fanout_active.store(false, std::memory_order_release);
        return;
      }
    }
  }
  for (int w = 0; w < num_workers; ++w) {
    fn(ctx, w);
  }
}

void intraop_run_tasks(int num_tasks, std::int64_t cost,
                       void (*fn)(void* ctx, int task), void* ctx) {
  if (cost >= kParallelCostThreshold) {
    intraop_run_workers(num_tasks, fn, ctx);
    return;
  }
  for (int t = 0; t < num_tasks; ++t) {
    fn(ctx, t);
  }
}

int intraop_pool_width() {
  IntraOpPool& kp = intraop_pool();
  const std::lock_guard<std::mutex> lock(kp.state_mutex);
  if (kp.pool != nullptr) {
    return kp.pool->size();
  }
  return kp.requested_threads > 0 ? kp.requested_threads
                                  : default_thread_count();
}

void set_intraop_pool_width(int num_threads) {
  IntraOpPool& kp = intraop_pool();
  // Exclude concurrent fan-out users while the pool is swapped.
  const std::lock_guard<std::mutex> run_lock(kp.run_mutex);
  const std::lock_guard<std::mutex> lock(kp.state_mutex);
  kp.requested_threads = num_threads;
  kp.pool = std::make_unique<ThreadPool>(num_threads);
}

bool op_profiling_enabled() {
  return g_profile.load(std::memory_order_relaxed);
}

void profile_add_matmul(std::uint64_t ns) {
  g_matmul_ns.fetch_add(ns, std::memory_order_relaxed);
  g_matmul_calls.fetch_add(1, std::memory_order_relaxed);
}

void profile_add_eltwise(std::uint64_t ns) {
  g_eltwise_ns.fetch_add(ns, std::memory_order_relaxed);
  g_eltwise_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

void set_op_profiling(bool enabled) {
  detail::g_profile.store(enabled, std::memory_order_relaxed);
}

bool op_profiling_enabled() { return detail::op_profiling_enabled(); }

RuntimeOpProfile op_profile() {
  RuntimeOpProfile p;
  p.matmul_ns = detail::g_matmul_ns.load(std::memory_order_relaxed);
  p.matmul_calls = detail::g_matmul_calls.load(std::memory_order_relaxed);
  p.eltwise_ns = detail::g_eltwise_ns.load(std::memory_order_relaxed);
  p.eltwise_calls = detail::g_eltwise_calls.load(std::memory_order_relaxed);
  return p;
}

void reset_op_profile() {
  detail::g_matmul_ns.store(0, std::memory_order_relaxed);
  detail::g_matmul_calls.store(0, std::memory_order_relaxed);
  detail::g_eltwise_ns.store(0, std::memory_order_relaxed);
  detail::g_eltwise_calls.store(0, std::memory_order_relaxed);
}

}  // namespace dpipe::rt
