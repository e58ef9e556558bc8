#include "core/schedule/builder_common.h"
#include "core/schedule/schedule.h"

namespace dpipe {

Schedule ScheduleBuilder::build_bidirectional(
    int down_component, const std::vector<StagePlan>& down_stages,
    int up_component, const std::vector<StagePlan>& up_stages,
    const PartitionOptions& opts_in, const StageCostCache* cache) const {
  using namespace builder_detail;
  PartitionOptions opts = opts_in;
  opts.comm_competition_factor =
      std::max(opts.comm_competition_factor, 2.0);  // §4.2
  check_stages(down_stages, opts);
  check_stages(up_stages, opts);
  const int S = opts.num_stages;
  const int M = opts.num_microbatches;
  // Chain slot k hosts down stage k and up stage S-1-k; they must share
  // devices (as produced by partition_bidirectional).
  for (int k = 0; k < S; ++k) {
    DPIPE_REQUIRE(
        down_stages[k].device_ranks == up_stages[S - 1 - k].device_ranks,
        "down stage k and up stage S-1-k must share devices");
  }

  const std::vector<StageTiming> down_timings =
      stage_timings(*db_, *comm_, down_component, down_stages, opts, cache,
                    PipeDirection::kDown);
  const std::vector<StageTiming> up_timings =
      stage_timings(*db_, *comm_, up_component, up_stages, opts, cache,
                    PipeDirection::kUp);

  std::vector<detail::ProtoOp> ops;
  std::vector<int> down_executor(S), up_executor(S);
  for (int s = 0; s < S; ++s) {
    down_executor[s] = s;          // Down stage s at chain slot s.
    up_executor[s] = S - 1 - s;    // Up stage s at chain slot S-1-s.
  }
  const BackboneOps down_ids =
      append_backbone_ops(ops, 0, down_timings, down_executor, M, 0.0);
  const BackboneOps up_ids =
      append_backbone_ops(ops, 1, up_timings, up_executor, M, 0.0);

  // Each chain slot interleaves its down-stage and up-stage queues greedily
  // (earliest feasible start), which lets each direction's micro-batches
  // fill the other direction's bubbles (paper Fig. 3).
  std::vector<std::vector<std::vector<int>>> queues(S);
  for (int slot = 0; slot < S; ++slot) {
    queues[slot].push_back(one_f_one_b_order(down_ids, slot, S, M));
    queues[slot].push_back(
        one_f_one_b_order(up_ids, S - 1 - slot, S, M));
  }
  const std::vector<Span> times = detail::list_schedule(ops, queues);

  const std::vector<int> offsets = stage_chain_offsets(down_stages);
  std::vector<std::vector<int>> devices_of_executor(S);
  for (int s = 0; s < S; ++s) {
    for (int i = 0; i < down_stages[s].replicas; ++i) {
      devices_of_executor[s].push_back(offsets[s] + i);
    }
  }
  Schedule schedule = assemble_schedule(ops, times, devices_of_executor,
                                        opts.group_size, S, M);
  schedule.backbone_stages = {down_stages, up_stages};
  // Chain slot k hosts down stage k (slot 0) and up stage S-1-k (slot 1).
  std::vector<int> up_offsets(S);
  for (int s = 0; s < S; ++s) {
    up_offsets[s] = offsets[S - 1 - s];
  }
  schedule.placement = {
      backbone_placement(offsets, std::vector<int>(S, 0)),
      backbone_placement(up_offsets, std::vector<int>(S, 1))};
  return schedule;
}

}  // namespace dpipe
