#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/partition/bidirectional.h"
#include "core/partition/stage_cache.h"
#include "core/schedule/schedule.h"

namespace dpipe {

namespace {

/// Per-stage timing inputs derived from the profile.
struct StageTiming {
  double fwd_ms = 0.0;      ///< One micro-batch forward (incl. expected
                            ///< self-conditioning extra pass).
  double bwd_ms = 0.0;      ///< One micro-batch backward.
  double comm_in_ms = 0.0;  ///< Lag for activations arriving from the
                            ///< previous stage (0 for stage 0).
  double comm_out_bwd_ms = 0.0;  ///< Lag for activation gradients sent back
                                 ///< to the previous stage.
  double sync_ms = 0.0;     ///< Gradient allreduce duration.
};

double self_cond_factor(const PartitionOptions& opts) {
  return opts.self_conditioning ? 1.0 + opts.self_cond_prob : 1.0;
}

std::vector<int> stage_sync_group(const StagePlan& stage,
                                  const PartitionOptions& opts) {
  const int stride =
      opts.dp_rank_stride > 0 ? opts.dp_rank_stride : opts.group_size;
  std::vector<int> group;
  for (int g = 0; g < opts.data_parallel_degree; ++g) {
    for (const int rank : stage.device_ranks) {
      group.push_back(rank + g * stride);
    }
  }
  return group;
}

/// Chain slot offsets of `stages` given in pipeline order: down pipelines
/// run front-to-back along the chain, up pipelines back-to-front (stage 0
/// at the chain end), matching the chain DP's layout.
std::vector<int> pipeline_chain_offsets(const std::vector<StagePlan>& stages,
                                        int group_size,
                                        PipeDirection direction) {
  std::vector<int> offsets(stages.size(), 0);
  if (direction == PipeDirection::kDown) {
    int position = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      offsets[s] = position;
      position += stages[s].replicas;
    }
  } else {
    int position = group_size;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      position -= stages[s].replicas;
      offsets[s] = position;
    }
  }
  return offsets;
}

/// True when `stage` occupies exactly chain slots [chain_begin,
/// chain_begin + replicas) under the canonical rank layout — the
/// precondition for its DpPartitioner::stage_cost cache entry to describe
/// the same stage the builder is timing.
bool stage_matches_chain(const StagePlan& stage, const PartitionOptions& opts,
                         int chain_begin) {
  if (chain_begin < 0 || chain_begin + stage.replicas > opts.group_size) {
    return false;
  }
  for (int i = 0; i < stage.replicas; ++i) {
    const int pos = chain_begin + i;
    const int want =
        opts.device_ranks.empty() ? pos : opts.device_ranks[pos];
    if (stage.device_ranks[i] != want) {
      return false;
    }
  }
  return true;
}

std::vector<StageTiming> stage_timings(
    const ProfileDb& db, const CommModel& comm, int component,
    const std::vector<StagePlan>& stages, const PartitionOptions& opts,
    const StageCostCache* cache = nullptr,
    PipeDirection direction = PipeDirection::kDown) {
  std::vector<StageTiming> timings;
  timings.reserve(stages.size());
  const double sc = self_cond_factor(opts);
  const std::vector<int> offsets =
      cache == nullptr
          ? std::vector<int>{}
          : pipeline_chain_offsets(stages, opts.group_size, direction);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& stage = stages[s];
    const double local_batch = opts.microbatch_size / stage.replicas;
    StageTiming t;
    // The partitioner already computed this stage's profile sums and sync
    // time (bit-identically to the expressions below); reuse them when the
    // stage sits where the cache key says it does.
    const StageCost* hit = nullptr;
    if (cache != nullptr &&
        stage_matches_chain(stage, opts, offsets[s])) {
      hit = cache->find({component, stage.layer_begin, stage.layer_end,
                         stage.replicas, offsets[s], direction});
    }
    if (hit != nullptr) {
      t.fwd_ms = sc * hit->fwd_ms;
      t.bwd_ms = hit->bwd_ms;
      t.sync_ms = hit->sync_ms;
    } else {
      t.fwd_ms = sc * db.fwd_range_ms(component, stage.layer_begin,
                                      stage.layer_end, local_batch);
      t.bwd_ms = db.bwd_range_ms(component, stage.layer_begin,
                                 stage.layer_end, local_batch);
      const double grad_mb =
          kGradCommBytesFactor *
          db.grad_range_mb(component, stage.layer_begin, stage.layer_end);
      t.sync_ms = comm.allreduce_ms(grad_mb, stage_sync_group(stage, opts));
    }
    if (s > 0) {
      const StagePlan& prev = stages[s - 1];
      const double size_mb =
          db.layer(component, stage.layer_begin - 1).output_mb * local_batch;
      const LinkSpec link =
          comm.p2p_link(prev.device_ranks.back(), stage.device_ranks.front());
      const double base =
          transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms;
      t.comm_in_ms = opts.comm_competition_factor * sc * base;
      t.comm_out_bwd_ms = opts.comm_competition_factor * base;
    }
    timings.push_back(t);
  }
  return timings;
}

/// Expected self-conditioning feedback transfer p * T_F (§4.3).
double feedback_lag_ms(const ProfileDb& db, const CommModel& comm,
                       int component, const std::vector<StagePlan>& stages,
                       const PartitionOptions& opts) {
  if (!opts.self_conditioning) {
    return 0.0;
  }
  const int last_layer = stages.back().layer_end - 1;
  const double size_mb =
      db.layer(component, last_layer).output_mb * opts.microbatch_size;
  const LinkSpec link = comm.p2p_link(stages.back().device_ranks.back(),
                                      stages.front().device_ranks.front());
  return opts.self_cond_prob *
         (transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms);
}

/// Indices of one backbone's proto-ops: fwd[s][m], bwd[s][m], sync[s].
struct BackboneOps {
  std::vector<std::vector<int>> fwd;
  std::vector<std::vector<int>> bwd;
  std::vector<int> sync;
};

/// Appends forward/backward/sync proto-ops of one backbone to `ops` and
/// wires their dependencies. `executor_of_stage[s]` maps the backbone's
/// stage index to its executor slot. Queues are built by assemble().
BackboneOps append_backbone_ops(
    std::vector<detail::ProtoOp>& ops, int backbone_index,
    const std::vector<StageTiming>& timings,
    const std::vector<int>& executor_of_stage, int num_microbatches,
    double feedback_ms) {
  const int S = static_cast<int>(timings.size());
  const int M = num_microbatches;
  BackboneOps ids;
  ids.fwd.assign(S, std::vector<int>(M, -1));
  ids.bwd.assign(S, std::vector<int>(M, -1));
  ids.sync.assign(S, -1);
  for (int s = 0; s < S; ++s) {
    for (int m = 0; m < M; ++m) {
      detail::ProtoOp fwd;
      fwd.kind = OpKind::kForward;
      fwd.backbone = backbone_index;
      fwd.stage = s;
      fwd.micro = m;
      fwd.duration_ms = timings[s].fwd_ms;
      fwd.executor = executor_of_stage[s];
      if (s > 0) {
        fwd.deps.emplace_back(ids.fwd[s - 1][m], timings[s].comm_in_ms);
      }
      ids.fwd[s][m] = static_cast<int>(ops.size());
      ops.push_back(std::move(fwd));
    }
  }
  for (int s = S - 1; s >= 0; --s) {
    for (int m = 0; m < M; ++m) {
      detail::ProtoOp bwd;
      bwd.kind = OpKind::kBackward;
      bwd.backbone = backbone_index;
      bwd.stage = s;
      bwd.micro = m;
      bwd.duration_ms = timings[s].bwd_ms;
      bwd.executor = executor_of_stage[s];
      bwd.deps.emplace_back(ids.fwd[s][m], 0.0);
      if (s < S - 1) {
        bwd.deps.emplace_back(ids.bwd[s + 1][m],
                              timings[s + 1].comm_out_bwd_ms);
      } else if (m == 0 && feedback_ms > 0.0) {
        // Self-conditioning feedback: the expected T_F transfer from the
        // last stage's output back to stage 0 sits on the critical path
        // before the backward phase begins (§4.3, Fig. 10).
        bwd.deps.emplace_back(ids.fwd[s][m], feedback_ms);
      }
      ids.bwd[s][m] = static_cast<int>(ops.size());
      ops.push_back(std::move(bwd));
    }
  }
  for (int s = 0; s < S; ++s) {
    detail::ProtoOp sync;
    sync.kind = OpKind::kGradSync;
    sync.backbone = backbone_index;
    sync.stage = s;
    sync.duration_ms = timings[s].sync_ms;
    sync.executor = -1;  // Link op: overlaps compute.
    for (int m = 0; m < M; ++m) {
      sync.deps.emplace_back(ids.bwd[s][m], 0.0);
    }
    ids.sync[s] = static_cast<int>(ops.size());
    ops.push_back(std::move(sync));
  }
  return ids;
}

/// 1F1B queue order of one stage: warm-up forwards, steady 1F1B pairs,
/// cool-down backwards (paper Fig. 2).
std::vector<int> one_f_one_b_order(const BackboneOps& ids, int stage,
                                   int num_stages, int num_microbatches) {
  const int warmup = std::min(num_stages - 1 - stage, num_microbatches);
  std::vector<int> queue;
  for (int m = 0; m < warmup; ++m) {
    queue.push_back(ids.fwd[stage][m]);
  }
  for (int i = 0; i + warmup < num_microbatches; ++i) {
    queue.push_back(ids.fwd[stage][warmup + i]);
    queue.push_back(ids.bwd[stage][i]);
  }
  for (int m = num_microbatches - warmup; m < num_microbatches; ++m) {
    queue.push_back(ids.bwd[stage][m]);
  }
  return queue;
}

/// GPipe queue order: all forwards, then all backwards (reverse micro
/// order, matching the backward dependency chain).
std::vector<int> gpipe_order(const BackboneOps& ids, int stage,
                             int num_microbatches) {
  std::vector<int> queue;
  for (int m = 0; m < num_microbatches; ++m) {
    queue.push_back(ids.fwd[stage][m]);
  }
  for (int m = num_microbatches - 1; m >= 0; --m) {
    queue.push_back(ids.bwd[stage][m]);
  }
  return queue;
}

void check_stages(const std::vector<StagePlan>& stages,
                  const PartitionOptions& opts) {
  DPIPE_REQUIRE(!stages.empty(), "schedule needs at least one stage");
  DPIPE_REQUIRE(static_cast<int>(stages.size()) == opts.num_stages,
                "stage list does not match opts.num_stages");
  int devices = 0;
  for (const StagePlan& s : stages) {
    DPIPE_REQUIRE(s.replicas >= 1 &&
                      static_cast<int>(s.device_ranks.size()) == s.replicas,
                  "stage replica list inconsistent");
    devices += s.replicas;
  }
  DPIPE_REQUIRE(devices == opts.group_size,
                "stages do not cover the pipeline group");
}

/// Chain positions each stage occupies when `stages` run front to back
/// along the chain: stage s holds [offset(s), offset(s) + replicas).
std::vector<std::vector<int>> chain_positions(
    const std::vector<StagePlan>& stages) {
  std::vector<std::vector<int>> positions(stages.size());
  int position = 0;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (int i = 0; i < stages[s].replicas; ++i) {
      positions[s].push_back(position++);
    }
  }
  return positions;
}

/// One backbone as the assembly sees it: its stages, their timings, and
/// the executor each stage runs on.
struct Lane {
  const std::vector<StagePlan>* stages = nullptr;
  std::vector<StageTiming> timings;
  std::vector<int> executor;  ///< executor[s]: serial executor of stage s.
  double feedback_ms = 0.0;   ///< Expected self-conditioning T_F lag.
};

enum class QueueOrder { k1F1B, kGpipe };

/// The one schedule assembly of every family. Each lane's ops are appended
/// in lane order; each executor gets one queue per stage it hosts, lanes
/// in order and then stages in ascending order, and interleaves its queues
/// greedily (earliest feasible start, ties to the lower queue). That rule
/// yields one queue per executor for plain 1F1B and GPipe, V queues per
/// device for interleaved placements, and a down and an up queue per chain
/// slot for bidirectional ones. A stage's placement slot is the index of
/// its queue; `devices_of_executor` lists the chain positions each
/// executor's compute occupies.
Schedule assemble(const std::vector<Lane>& lanes,
                  const std::vector<std::vector<int>>& devices_of_executor,
                  QueueOrder order, const PartitionOptions& opts) {
  const int M = opts.num_microbatches;
  std::vector<detail::ProtoOp> ops;
  std::vector<BackboneOps> ids;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    ids.push_back(append_backbone_ops(ops, static_cast<int>(l),
                                      lanes[l].timings, lanes[l].executor, M,
                                      lanes[l].feedback_ms));
  }

  Schedule schedule;
  std::vector<std::vector<std::vector<int>>> queues(
      devices_of_executor.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const int S = static_cast<int>(lanes[l].timings.size());
    std::vector<StagePlacement>& placement = schedule.placement.emplace_back(
        static_cast<std::size_t>(S));
    for (int s = 0; s < S; ++s) {
      const int e = lanes[l].executor[s];
      placement[s] = {devices_of_executor[e].front(),
                      static_cast<int>(queues[e].size())};
      queues[e].push_back(order == QueueOrder::k1F1B
                              ? one_f_one_b_order(ids[l], s, S, M)
                              : gpipe_order(ids[l], s, M));
    }
    schedule.backbone_stages.push_back(*lanes[l].stages);
  }
  const std::vector<Span> times = detail::list_schedule(ops, queues);

  schedule.group_size = opts.group_size;
  schedule.num_stages = opts.num_stages;
  schedule.num_microbatches = M;
  schedule.devices.resize(opts.group_size);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PipelineOp op;
    op.kind = ops[i].kind;
    op.backbone = ops[i].backbone;
    op.stage = ops[i].stage;
    op.micro = ops[i].micro;
    op.start_ms = times[i].start;
    op.end_ms = times[i].end;
    schedule.makespan_ms = std::max(schedule.makespan_ms, op.end_ms);
    if (ops[i].executor < 0) {
      schedule.link_ops.push_back(op);
      continue;
    }
    schedule.compute_makespan_ms =
        std::max(schedule.compute_makespan_ms, op.end_ms);
    for (const int device : devices_of_executor[ops[i].executor]) {
      schedule.devices[device].ops.push_back(op);
    }
  }
  for (DeviceTimeline& device : schedule.devices) {
    std::sort(device.ops.begin(), device.ops.end(),
              [](const PipelineOp& a, const PipelineOp& b) {
                return a.start_ms < b.start_ms;
              });
  }
  return schedule;
}

/// A single backbone whose stage s runs on executor s, which occupies the
/// stage's chain positions (1F1B and GPipe).
Schedule build_chain(const ProfileDb& db, const CommModel& comm,
                     int component, const std::vector<StagePlan>& stages,
                     const PartitionOptions& opts,
                     const StageCostCache* cache, QueueOrder order) {
  check_stages(stages, opts);
  Lane lane;
  lane.stages = &stages;
  lane.timings = stage_timings(db, comm, component, stages, opts, cache);
  lane.executor.resize(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    lane.executor[s] = static_cast<int>(s);
  }
  lane.feedback_ms = feedback_lag_ms(db, comm, component, stages, opts);
  return assemble({std::move(lane)}, chain_positions(stages), order, opts);
}

}  // namespace

Schedule ScheduleBuilder::build_1f1b(int backbone_component,
                                     const std::vector<StagePlan>& stages,
                                     const PartitionOptions& opts,
                                     const StageCostCache* cache) const {
  return build_chain(*db_, *comm_, backbone_component, stages, opts, cache,
                     QueueOrder::k1F1B);
}

Schedule ScheduleBuilder::build_gpipe(int backbone_component,
                                      const std::vector<StagePlan>& stages,
                                      const PartitionOptions& opts,
                                      const StageCostCache* cache) const {
  return build_chain(*db_, *comm_, backbone_component, stages, opts, cache,
                     QueueOrder::kGpipe);
}

Schedule ScheduleBuilder::build_interleaved(
    int backbone_component, const std::vector<StagePlan>& stages,
    const PartitionOptions& opts, const StageCostCache* cache) const {
  DPIPE_REQUIRE(!stages.empty(), "schedule needs at least one stage");
  const int S = static_cast<int>(stages.size());
  const int D = opts.group_size;
  DPIPE_REQUIRE(S == opts.num_stages,
                "stage list does not match opts.num_stages");
  DPIPE_REQUIRE(D >= 1 && S % D == 0,
                "interleaved placement needs num_stages to be a multiple of "
                "group_size");
  DPIPE_REQUIRE(S == D || D >= 2,
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

  // Timed on the virtual chain the planner partitioned (each stage at
  // chain position s), so the DP's cached costs are found under their
  // keys; boundary links and sync groups still resolve to physical ranks.
  Lane lane;
  lane.stages = &stages;
  lane.timings =
      stage_timings(*db_, *comm_, backbone_component, stages,
                    interleaved_chain_options(opts, S), cache);
  lane.executor.resize(stages.size());
  for (int s = 0; s < S; ++s) {
    lane.executor[s] = s % D;
  }
  lane.feedback_ms =
      feedback_lag_ms(*db_, *comm_, backbone_component, stages, opts);
  std::vector<std::vector<int>> devices_of_executor(D);
  for (int d = 0; d < D; ++d) {
    devices_of_executor[d] = {d};
  }
  return assemble({std::move(lane)}, devices_of_executor, QueueOrder::k1F1B,
                  opts);
}

Schedule ScheduleBuilder::build_bidirectional(
    int down_component, const std::vector<StagePlan>& down_stages,
    int up_component, const std::vector<StagePlan>& up_stages,
    const PartitionOptions& opts_in, const StageCostCache* cache) const {
  const PartitionOptions opts = bidirectional_options(opts_in);
  check_stages(down_stages, opts);
  check_stages(up_stages, opts);
  const int S = opts.num_stages;
  // Chain slot k hosts down stage k and up stage S-1-k; they must share
  // devices (as produced by partition_bidirectional).
  for (int k = 0; k < S; ++k) {
    DPIPE_REQUIRE(
        down_stages[k].device_ranks == up_stages[S - 1 - k].device_ranks,
        "down stage k and up stage S-1-k must share devices");
  }

  // Each chain slot interleaves its down-stage and up-stage queues, which
  // lets each direction's micro-batches fill the other direction's bubbles
  // (paper Fig. 3).
  Lane down;
  down.stages = &down_stages;
  down.timings = stage_timings(*db_, *comm_, down_component, down_stages,
                               opts, cache, PipeDirection::kDown);
  Lane up;
  up.stages = &up_stages;
  up.timings = stage_timings(*db_, *comm_, up_component, up_stages, opts,
                             cache, PipeDirection::kUp);
  for (int s = 0; s < S; ++s) {
    down.executor.push_back(s);       // Down stage s at chain slot s.
    up.executor.push_back(S - 1 - s);  // Up stage s at chain slot S-1-s.
  }
  return assemble({std::move(down), std::move(up)},
                  chain_positions(down_stages), QueueOrder::k1F1B, opts);
}

}  // namespace dpipe
