#pragma once

#include <cstddef>

namespace dpipe {

/// Thread count used by parallel algorithms when the caller does not pin
/// one: the DPIPE_THREADS environment variable if set to a positive
/// integer, otherwise the number of CPUs in the process's affinity mask
/// (Linux; so `taskset` caps it), falling back to
/// std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] int default_thread_count();

/// True while the calling thread is executing inside a process-pool batch
/// (as a worker or as the caller participating in its own batch). A
/// parallel_for issued from such a thread runs inline: one level of
/// parallelism at a time.
[[nodiscard]] bool in_parallel_region();

// --- The process pool -------------------------------------------------------
// One set of persistent worker threads serves every fan-out in the library:
// the planner's (S, M, D, V) grid search, the runtime's matmul task grid and
// elementwise sweeps, and the program interpreter's wave workers. It is
// built lazily at the first batch that needs a second thread, so no thread
// is started after that. Independent callers may enter concurrently: one
// batch runs at a time, and a caller that finds a batch genuinely in flight
// runs its own work inline instead of waiting, taking the pool for the
// indices it has left once that batch ends (see parallel.cpp).
//
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
// every i in [0, n); which thread runs which index is unspecified, so fn
// must only write to per-index state (e.g. results[i]). Under that contract
// the result is bit-identical for every width, the inline fallback
// included, which the planner's and the runtime's parity tests rely on.

/// Width of the process pool (worker threads + the calling thread):
/// default_thread_count() unless set_pool_width pinned it.
[[nodiscard]] int pool_width();

/// Rebuilds the process pool with `num_threads` threads (<= 0 restores
/// default_thread_count()). Waits for an in-flight batch to finish.
void set_pool_width(int num_threads);

/// Runs fn(ctx, i) for every i in [0, n) as one batch on the whole process
/// pool, the caller participating, and returns the width it fanned out at:
/// min(n, pool_width()), or 1 when every index ran inline. max_width == 1,
/// a one-thread pool and a caller already in_parallel_region() run the
/// indices inline on the caller in ascending order; any other max_width
/// takes the whole pool. A pool busy with another caller's batch runs
/// indices inline in ascending order until that batch ends, then fans the
/// remaining ones out (width min(remaining, pool_width())). The first
/// exception thrown by fn is rethrown here (indices not yet started are
/// skipped); the pool stays usable.
int parallel_run(std::size_t n, int max_width,
                 void (*fn)(void* ctx, std::size_t i), void* ctx);

/// Type-safe parallel_run: no allocation, the callable lives on the
/// caller's stack for the duration of the batch.
template <typename Fn>
int parallel_for(std::size_t n, const Fn& fn, int max_width = 0) {
  return parallel_run(
      n, max_width,
      [](void* ctx, std::size_t i) { (*static_cast<const Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace dpipe
