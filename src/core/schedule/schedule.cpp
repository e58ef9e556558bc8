#include "core/schedule/schedule.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace dpipe {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kForward:
      return "fwd";
    case OpKind::kBackward:
      return "bwd";
    case OpKind::kGradSync:
      return "sync";
    case OpKind::kFrozenForward:
      return "frozen";
    case OpKind::kFrozenForwardPartial:
      return "frozen_partial";
    case OpKind::kLeftoverForward:
      return "leftover";
    case OpKind::kLoad:
      return "load";
    case OpKind::kOptimizer:
      return "optimizer";
  }
  return "unknown";
}

const char* to_string(ScheduleFamily family) {
  switch (family) {
    case ScheduleFamily::k1F1B:
      return "1f1b";
    case ScheduleFamily::kGpipe:
      return "gpipe";
    case ScheduleFamily::kBidirectional:
      return "bidir";
    case ScheduleFamily::kInterleaved:
      return "interleaved";
  }
  return "unknown";
}

ScheduleFamily parse_schedule_family(const std::string& name) {
  if (name == "1f1b") {
    return ScheduleFamily::k1F1B;
  }
  if (name == "gpipe") {
    return ScheduleFamily::kGpipe;
  }
  if (name == "bidir") {
    return ScheduleFamily::kBidirectional;
  }
  if (name == "interleaved") {
    return ScheduleFamily::kInterleaved;
  }
  throw std::invalid_argument("unknown schedule family \"" + name +
                              "\" (expected 1f1b|gpipe|bidir|interleaved)");
}

double bubble_ratio(const Schedule& schedule,
                    const std::vector<Bubble>& bubbles) {
  DPIPE_REQUIRE(schedule.group_size > 0, "schedule has no devices");
  if (schedule.makespan_ms <= 0.0) {
    return 0.0;
  }
  double idle_device_time = 0.0;
  for (const Bubble& b : bubbles) {
    idle_device_time += b.length_ms() * static_cast<double>(b.devices.size());
  }
  return idle_device_time /
         (schedule.makespan_ms * static_cast<double>(schedule.group_size));
}

ScheduleBuilder::ScheduleBuilder(const ProfileDb& db, const CommModel& comm)
    : db_(&db), comm_(&comm) {}

std::vector<Bubble> extract_bubbles(const Schedule& schedule,
                                    double min_bubble_ms) {
  DPIPE_REQUIRE(min_bubble_ms >= 0.0, "min_bubble_ms must be non-negative");
  std::vector<std::vector<Span>> idle_per_device;
  idle_per_device.reserve(schedule.devices.size());
  for (const DeviceTimeline& device : schedule.devices) {
    std::vector<Span> busy;
    busy.reserve(device.ops.size());
    for (const PipelineOp& op : device.ops) {
      busy.push_back({op.start_ms, op.end_ms});
    }
    idle_per_device.push_back(
        complement_spans(std::move(busy), schedule.makespan_ms));
  }
  std::vector<Bubble> bubbles;
  for (IdleInterval& iv :
       sweep_idle_intervals(idle_per_device, schedule.makespan_ms)) {
    if (iv.span.length() >= min_bubble_ms) {
      bubbles.push_back({iv.span, std::move(iv.idle_devices)});
    }
  }
  return bubbles;
}

namespace detail {

std::vector<Span> list_schedule(
    const std::vector<ProtoOp>& ops,
    const std::vector<std::vector<std::vector<int>>>& queues) {
  constexpr double kUnscheduled = -1.0;
  std::vector<Span> times(ops.size(), {kUnscheduled, kUnscheduled});
  std::vector<double> executor_free(queues.size(), 0.0);
  // Head position within each queue.
  std::vector<std::vector<std::size_t>> heads(queues.size());
  std::size_t remaining = 0;
  for (std::size_t e = 0; e < queues.size(); ++e) {
    heads[e].assign(queues[e].size(), 0);
    for (const auto& q : queues[e]) {
      remaining += q.size();
    }
  }

  const auto ready_time = [&](int op_index) -> double {
    double ready = 0.0;
    for (const auto& [dep, lag] : ops[op_index].deps) {
      DPIPE_ENSURE(dep >= 0 && dep < static_cast<int>(ops.size()),
                   "dependency index out of range");
      if (times[dep].end == kUnscheduled) {
        return kUnscheduled;  // Dependency not scheduled yet.
      }
      ready = std::max(ready, times[dep].end + lag);
    }
    return ready;
  };

  while (remaining > 0) {
    // Pick, over all executors and queue heads, the schedulable op with the
    // earliest feasible start (ties: lowest executor, lowest queue index).
    int best_op = -1;
    std::size_t best_executor = 0;
    std::size_t best_queue = 0;
    double best_start = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < queues.size(); ++e) {
      for (std::size_t q = 0; q < queues[e].size(); ++q) {
        if (heads[e][q] >= queues[e][q].size()) {
          continue;
        }
        const int op_index = queues[e][q][heads[e][q]];
        const double ready = ready_time(op_index);
        if (ready == kUnscheduled) {
          continue;
        }
        const double start = std::max(ready, executor_free[e]);
        if (start < best_start) {
          best_start = start;
          best_op = op_index;
          best_executor = e;
          best_queue = q;
        }
      }
    }
    DPIPE_ENSURE(best_op >= 0, "pipeline schedule deadlocked");
    times[static_cast<std::size_t>(best_op)] = {
        best_start, best_start + ops[best_op].duration_ms};
    executor_free[best_executor] =
        times[static_cast<std::size_t>(best_op)].end;
    ++heads[best_executor][best_queue];
    --remaining;
  }

  // Link ops (executor -1): start at dependency readiness, occupy nothing.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].executor >= 0) {
      continue;
    }
    const double ready = ready_time(static_cast<int>(i));
    DPIPE_ENSURE(ready != kUnscheduled, "link op depends on unscheduled op");
    times[i] = {ready, ready + ops[i].duration_ms};
  }
  return times;
}

}  // namespace detail

}  // namespace dpipe
