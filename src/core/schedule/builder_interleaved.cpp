#include "core/schedule/builder_common.h"
#include "core/schedule/schedule.h"

namespace dpipe {

Schedule ScheduleBuilder::build_interleaved(
    int backbone_component, const std::vector<StagePlan>& stages,
    const PartitionOptions& opts, const StageCostCache* cache) const {
  using namespace builder_detail;
  DPIPE_REQUIRE(!stages.empty(), "schedule needs at least one stage");
  const int S = static_cast<int>(stages.size());
  const int D = opts.group_size;
  const int M = opts.num_microbatches;
  DPIPE_REQUIRE(S == opts.num_stages,
                "stage list does not match opts.num_stages");
  DPIPE_REQUIRE(D >= 1 && S % D == 0,
                "interleaved placement needs num_stages to be a multiple of "
                "group_size");
  const int V = S / D;
  DPIPE_REQUIRE(V == 1 || D >= 2,
                "interleaved with more than one virtual stage per device needs "
                "at least two devices (a device cannot send to itself)");
  for (int s = 0; s < S; ++s) {
    DPIPE_REQUIRE(stages[s].replicas == 1 &&
                      static_cast<int>(stages[s].device_ranks.size()) == 1,
                  "interleaved stages must have exactly one replica");
    DPIPE_REQUIRE(stages[s].device_ranks[0] == s % D,
                  "interleaved placement must be round-robin: stage s on "
                  "device s % group_size");
  }

  const std::vector<StageTiming> timings = interleaved_stage_timings(
      *db_, *comm_, backbone_component, stages, opts, cache);
  const double feedback =
      feedback_lag_ms(*db_, *comm_, backbone_component, stages, opts);

  std::vector<detail::ProtoOp> ops;
  std::vector<int> executor_of_stage(S);
  for (int s = 0; s < S; ++s) {
    executor_of_stage[s] = s % D;
  }
  const BackboneOps ids =
      append_backbone_ops(ops, 0, timings, executor_of_stage, M, feedback);

  // One 1F1B queue per owned virtual stage, in slot (ascending-stage)
  // order; each device interleaves its queues greedily (earliest feasible
  // start, ties to the lower slot), which realizes the looping interleaved
  // warm-up/steady/cool-down pattern. With V == 1 this degenerates to
  // exactly build_1f1b's one-queue-per-device layout.
  std::vector<std::vector<std::vector<int>>> queues(D);
  for (int v = 0; v < V; ++v) {
    for (int d = 0; d < D; ++d) {
      queues[d].push_back(one_f_one_b_order(ids, v * D + d, S, M));
    }
  }
  const std::vector<Span> times = detail::list_schedule(ops, queues);

  std::vector<std::vector<int>> devices_of_executor(D);
  for (int d = 0; d < D; ++d) {
    devices_of_executor[d] = {d};
  }
  Schedule schedule =
      assemble_schedule(ops, times, devices_of_executor, D, S, M);
  schedule.backbone_stages = {stages};
  std::vector<StagePlacement> placement(S);
  for (int s = 0; s < S; ++s) {
    placement[s] = {s % D, s / D};
  }
  schedule.placement = {std::move(placement)};
  return schedule;
}

}  // namespace dpipe
