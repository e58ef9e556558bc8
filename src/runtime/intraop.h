#pragma once

// Internal interface to the shared intra-op worker pool and the runtime op
// profiler. Not installed, not part of the public API — include only from
// runtime TUs. The public surface (kernel_threads, set_kernel_threads,
// set_op_profiling, op_profile) lives in kernels.h.
//
// One process-wide pool serves every fan-out in the runtime: the packed
// matmul task grid (kernels.cpp), the wide elementwise/optimizer loops
// (eltwise.cpp) and the program interpreter's wave workers
// (interpreter.cpp). Sharing one pool keeps the busy-aware entry protocol
// in a single place: independent callers may enter concurrently, so entry
// is guarded by a try-lock, and a loser only degrades to the caller-inline
// loop when a fan-out batch is *genuinely* in flight (see intraop.cpp).
// Pool workers and the participating caller are in_parallel_region(), so a
// kernel called from inside a batch (e.g. from a wave task) runs inline:
// one level of parallelism at a time.
//
// Determinism contract: callers decompose work into tasks whose boundaries
// depend only on the problem shape (never on the thread count), and every
// output element is written whole by exactly one task — so results are
// bit-identical for any pool width, including the inline fallback.

#include <cstdint>

namespace dpipe::rt::detail {

/// Runs fn(ctx, t) for every task t in [0, num_tasks), fanning out over the
/// shared intra-op pool when the work is above the internal FLOP/byte
/// threshold embodied in `cost` (callers pass their total work estimate;
/// the pool skips the fan-out for small `cost`) and the pool is wider than
/// one thread, neither nested inside another batch nor busy. Otherwise the
/// tasks run inline on the calling thread, in ascending order.
void intraop_run_tasks(int num_tasks, std::int64_t cost,
                       void (*fn)(void* ctx, int task), void* ctx);

/// Runs fn(ctx, w) for every worker index w in [0, num_workers) as one
/// batch on the shared pool, regardless of cost: the interpreter's wave
/// workers, each a loop that claims resumable tasks until the wave ends.
/// Same busy/nested fallback as intraop_run_tasks, so callers must not
/// depend on the workers running concurrently (worker 0 run inline must
/// be able to finish the whole batch's work on its own).
void intraop_run_workers(int num_workers, void (*fn)(void* ctx, int worker),
                         void* ctx);

/// Type-safe wrapper: no allocation, the callable lives on the caller's
/// stack for the duration of the batch.
template <typename Fn>
void intraop_for_each_task(int num_tasks, std::int64_t cost, const Fn& fn) {
  intraop_run_tasks(
      num_tasks, cost,
      [](void* ctx, int t) { (*static_cast<const Fn*>(ctx))(t); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

/// Type-safe wrapper of intraop_run_workers, like intraop_for_each_task.
template <typename Fn>
void intraop_for_each_worker(int num_workers, const Fn& fn) {
  intraop_run_workers(
      num_workers,
      [](void* ctx, int w) { (*static_cast<const Fn*>(ctx))(w); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

/// Current pool width / rebuild hooks backing kernel_threads() and
/// set_kernel_threads() in kernels.h.
[[nodiscard]] int intraop_pool_width();
void set_intraop_pool_width(int num_threads);

// --- Runtime op profiler (backing kernels.h set_op_profiling) ------------
// Cheap enough to leave compiled in: one relaxed atomic load per op when
// disabled, one steady_clock pair + two relaxed atomic adds when enabled.

[[nodiscard]] bool op_profiling_enabled();
void profile_add_matmul(std::uint64_t ns);
void profile_add_eltwise(std::uint64_t ns);

}  // namespace dpipe::rt::detail
