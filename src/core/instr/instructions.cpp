#include "core/instr/instructions.h"

#include <algorithm>
#include <map>

namespace dpipe {

const char* to_string(InstrKind kind) {
  switch (kind) {
    case InstrKind::kLoadMicroBatch:
      return "load";
    case InstrKind::kForward:
      return "forward";
    case InstrKind::kBackward:
      return "backward";
    case InstrKind::kSendActivation:
      return "send_act";
    case InstrKind::kRecvActivation:
      return "recv_act";
    case InstrKind::kSendGradient:
      return "send_grad";
    case InstrKind::kRecvGradient:
      return "recv_grad";
    case InstrKind::kFrozenForward:
      return "frozen";
    case InstrKind::kAllReduceGrads:
      return "allreduce";
    case InstrKind::kOptimizerStep:
      return "optimizer";
  }
  return "unknown";
}

namespace {

/// Map (backbone, stage) -> sorted chain positions hosting it, derived from
/// the schedule's own timelines (robust to any stage->device layout).
std::map<std::pair<int, int>, std::vector<int>> stage_devices(
    const Schedule& schedule) {
  std::map<std::pair<int, int>, std::vector<int>> out;
  for (int dev = 0; dev < schedule.group_size; ++dev) {
    for (const PipelineOp& op : schedule.devices[dev].ops) {
      if (op.kind != OpKind::kForward && op.kind != OpKind::kBackward) {
        continue;
      }
      auto& devices = out[{op.backbone, op.stage}];
      if (std::find(devices.begin(), devices.end(), dev) == devices.end()) {
        devices.push_back(dev);
      }
    }
  }
  for (auto& [key, devices] : out) {
    std::sort(devices.begin(), devices.end());
  }
  return out;
}

/// Peer of `device` (a replica of (backbone, my_stage)) within the
/// neighbour stage: same replica index when counts match, replica 0
/// otherwise.
int peer_device(const std::map<std::pair<int, int>, std::vector<int>>& map,
                int backbone, int my_stage, int other_stage, int device) {
  const std::vector<int>& mine = map.at({backbone, my_stage});
  const std::vector<int>& theirs = map.at({backbone, other_stage});
  const auto it = std::find(mine.begin(), mine.end(), device);
  DPIPE_ENSURE(it != mine.end(), "device is not a replica of its own stage");
  const auto index = static_cast<std::size_t>(it - mine.begin());
  return mine.size() == theirs.size() ? theirs[index] : theirs.front();
}

}  // namespace

InstructionProgram generate_instructions(const ProfileDb& db,
                                         const Schedule& filled_schedule,
                                         const FillResult& fill,
                                         const PartitionOptions& opts) {
  const ModelDesc& model = db.model();
  InstructionProgram program;
  program.group_size = filled_schedule.group_size;
  program.num_backbones =
      static_cast<int>(filled_schedule.backbone_stages.size());
  program.per_device.resize(filled_schedule.group_size);
  program.preamble.resize(filled_schedule.group_size);

  const auto devices_of = stage_devices(filled_schedule);

  // The schedule does not carry component ids; backbone i must be the i-th
  // entry of model.backbone_ids (an invariant the planner maintains).
  DPIPE_REQUIRE(program.num_backbones <=
                    static_cast<int>(model.backbone_ids.size()),
                "schedule has more backbones than the model");

  for (int dev = 0; dev < filled_schedule.group_size; ++dev) {
    std::vector<Instruction>& stream = program.per_device[dev];
    for (const PipelineOp& op : filled_schedule.devices[dev].ops) {
      switch (op.kind) {
        case OpKind::kForward: {
          const int component = model.backbone_ids[op.backbone];
          const std::vector<StagePlan>& stages =
              filled_schedule.backbone_stages[op.backbone];
          const StagePlan& stage = stages[op.stage];
          const int S = static_cast<int>(stages.size());
          const double local = opts.microbatch_size / stage.replicas;
          if (op.stage == 0) {
            Instruction load;
            load.kind = InstrKind::kLoadMicroBatch;
            load.backbone = op.backbone;
            load.stage = 0;
            load.micro = op.micro;
            load.samples = local;
            stream.push_back(load);
          } else {
            Instruction recv;
            recv.kind = InstrKind::kRecvActivation;
            recv.backbone = op.backbone;
            recv.stage = op.stage;
            recv.micro = op.micro;
            recv.peer = peer_device(devices_of, op.backbone, op.stage,
                                    op.stage - 1, dev);
            recv.size_mb =
                db.layer(component, stage.layer_begin - 1).output_mb * local;
            stream.push_back(recv);
          }
          Instruction fwd;
          fwd.kind = InstrKind::kForward;
          fwd.backbone = op.backbone;
          fwd.stage = op.stage;
          fwd.micro = op.micro;
          fwd.component = component;
          fwd.layer_begin = stage.layer_begin;
          fwd.layer_end = stage.layer_end;
          fwd.samples = local;
          stream.push_back(fwd);
          if (op.stage < S - 1) {
            Instruction send;
            send.kind = InstrKind::kSendActivation;
            send.backbone = op.backbone;
            send.stage = op.stage;
            send.micro = op.micro;
            send.peer = peer_device(devices_of, op.backbone, op.stage,
                                    op.stage + 1, dev);
            send.size_mb =
                db.layer(component, stage.layer_end - 1).output_mb * local;
            stream.push_back(send);
          }
          break;
        }
        case OpKind::kBackward: {
          const int component = model.backbone_ids[op.backbone];
          const std::vector<StagePlan>& stages =
              filled_schedule.backbone_stages[op.backbone];
          const StagePlan& stage = stages[op.stage];
          const int S = static_cast<int>(stages.size());
          const double local = opts.microbatch_size / stage.replicas;
          if (op.stage < S - 1) {
            Instruction recv;
            recv.kind = InstrKind::kRecvGradient;
            recv.backbone = op.backbone;
            recv.stage = op.stage;
            recv.micro = op.micro;
            recv.peer = peer_device(devices_of, op.backbone, op.stage,
                                    op.stage + 1, dev);
            recv.size_mb =
                db.layer(component, stage.layer_end - 1).output_mb * local;
            stream.push_back(recv);
          }
          Instruction bwd;
          bwd.kind = InstrKind::kBackward;
          bwd.backbone = op.backbone;
          bwd.stage = op.stage;
          bwd.micro = op.micro;
          bwd.component = component;
          bwd.layer_begin = stage.layer_begin;
          bwd.layer_end = stage.layer_end;
          bwd.samples = local;
          stream.push_back(bwd);
          if (op.stage > 0) {
            Instruction send;
            send.kind = InstrKind::kSendGradient;
            send.backbone = op.backbone;
            send.stage = op.stage;
            send.micro = op.micro;
            send.peer = peer_device(devices_of, op.backbone, op.stage,
                                    op.stage - 1, dev);
            send.size_mb =
                db.layer(component, stage.layer_begin - 1).output_mb * local;
            stream.push_back(send);
          }
          if (op.micro == filled_schedule.num_microbatches - 1) {
            Instruction sync;
            sync.kind = InstrKind::kAllReduceGrads;
            sync.backbone = op.backbone;
            sync.stage = op.stage;
            sync.size_mb =
                kGradCommBytesFactor *
                db.grad_range_mb(component, stage.layer_begin,
                                 stage.layer_end);
            stream.push_back(sync);
          }
          break;
        }
        case OpKind::kFrozenForward:
        case OpKind::kFrozenForwardPartial:
        case OpKind::kLeftoverForward: {
          Instruction frozen;
          frozen.kind = InstrKind::kFrozenForward;
          frozen.component = op.component;
          frozen.layer_begin = op.layer;
          frozen.layer_end = op.layer + 1;
          frozen.samples = op.samples;  // Already per-device local.
          stream.push_back(frozen);
          break;
        }
        case OpKind::kGradSync:
        case OpKind::kLoad:
        case OpKind::kOptimizer:
          break;  // Regenerated from the device ops above.
      }
    }
    // Optimizer step per hosted backbone stage, after everything else.
    for (const auto& [key, devices] : devices_of) {
      if (std::find(devices.begin(), devices.end(), dev) == devices.end()) {
        continue;
      }
      const auto [backbone, stage_index] = key;
      const StagePlan& stage =
          filled_schedule.backbone_stages[backbone][stage_index];
      Instruction step;
      step.kind = InstrKind::kOptimizerStep;
      step.backbone = backbone;
      step.stage = stage_index;
      step.component = model.backbone_ids[backbone];
      step.layer_begin = stage.layer_begin;
      step.layer_end = stage.layer_end;
      step.size_mb = db.param_range_mb(model.backbone_ids[backbone],
                                       stage.layer_begin, stage.layer_end);
      stream.push_back(step);
    }
  }

  // First-iteration preamble: the whole non-trainable part, data-parallel
  // over all devices (only executed once; §3.2).
  const double group_batch = opts.microbatch_size * opts.num_microbatches;
  for (int dev = 0; dev < filled_schedule.group_size; ++dev) {
    for (const int ci : model.non_trainable_topo_order()) {
      for (int li = 0; li < model.components[ci].num_layers(); ++li) {
        Instruction frozen;
        frozen.kind = InstrKind::kFrozenForward;
        frozen.component = ci;
        frozen.layer_begin = li;
        frozen.layer_end = li + 1;
        frozen.samples = group_batch / filled_schedule.group_size;
        program.preamble[dev].push_back(frozen);
      }
    }
  }
  (void)fill;  // Reserved: fill metadata (e.g. split counts) may be lowered
               // into explicit gather/scatter instructions in the future.
  return program;
}

}  // namespace dpipe
