#pragma once

// Internal interface to the runtime's fan-out threshold and op profiler.
// Not installed, not part of the public API — include only from runtime
// TUs. The public surface (kernel_threads, set_op_profiling, op_profile)
// lives in kernels.h.
//
// The runtime has no pool of its own: the packed matmul task grid
// (kernels.cpp) and the wide elementwise/optimizer loops (eltwise.cpp) fan
// out through intraop_for_each_task onto the process pool
// (common/parallel.h), and the program interpreter's wave workers
// (interpreter.cpp) submit to it directly. Pool workers and the
// participating caller are in_parallel_region(), so a kernel called from
// inside a batch (e.g. from a wave task) runs inline: one level of
// parallelism at a time.
//
// Determinism contract: callers decompose work into tasks whose boundaries
// depend only on the problem shape (never on the thread count), and every
// output element is written whole by exactly one task — so results are
// bit-identical for any pool width, including the inline fallback.

#include <cstddef>
#include <cstdint>

#include "common/parallel.h"

namespace dpipe::rt::detail {

/// Work below this cost (caller units: FLOPs for matmuls, bytes moved for
/// elementwise sweeps) runs single-threaded; the threshold depends only on
/// the caller's shape, so the dispatch decision is deterministic.
inline constexpr std::int64_t kParallelCostThreshold = 1 << 20;

/// Runs fn(t) for every task t in [0, num_tasks): on the process pool
/// (parallel_for) when `cost`, the caller's total work estimate, reaches
/// kParallelCostThreshold, otherwise inline on the calling thread in
/// ascending order.
template <typename Fn>
void intraop_for_each_task(int num_tasks, std::int64_t cost, const Fn& fn) {
  parallel_for(
      static_cast<std::size_t>(num_tasks),
      [&fn](std::size_t t) { fn(static_cast<int>(t)); },
      cost >= kParallelCostThreshold ? 0 : 1);
}

// --- Runtime op profiler (backing kernels.h set_op_profiling) ------------
// Cheap enough to leave compiled in: one relaxed atomic load per op when
// disabled, one steady_clock pair + two relaxed atomic adds when enabled.

[[nodiscard]] bool op_profiling_enabled();
void profile_add_matmul(std::uint64_t ns);
void profile_add_eltwise(std::uint64_t ns);

}  // namespace dpipe::rt::detail
