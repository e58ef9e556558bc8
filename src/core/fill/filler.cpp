#include "core/fill/filler.h"

#include <algorithm>
#include <map>

namespace dpipe {

namespace {

/// Mutable per-component progress while filling.
struct ComponentState {
  int next_layer = 0;
  double head_remaining = 0.0;
  bool started = false;

  [[nodiscard]] bool complete(int num_layers) const {
    return next_layer >= num_layers;
  }
};

PipelineOp to_pipeline_op(const PlacedFrozenOp& placed, OpKind kind) {
  PipelineOp op;
  op.kind = kind;
  op.component = placed.component;
  op.layer = placed.layer;
  op.samples = placed.samples;
  op.start_ms = placed.start_ms;
  op.end_ms = placed.end_ms;
  return op;
}

}  // namespace

BubbleFiller::BubbleFiller(const ProfileDb& db) : db_(&db) {}

FillResult BubbleFiller::fill(const Schedule& schedule,
                              const FillOptions& opts) const {
  DPIPE_REQUIRE(opts.training_batch > 0.0, "training batch must be positive");
  DPIPE_REQUIRE(std::is_sorted(opts.partial_local_grid.begin(),
                               opts.partial_local_grid.end()),
                "partial batch grid must be ascending");
  const ModelDesc& model = db_->model();

  FillResult result;
  result.filled_schedule = schedule;

  // Per-component progress, initialized to "nothing processed".
  const std::vector<int> topo = model.non_trainable_topo_order();
  std::map<int, ComponentState> state;
  for (const int ci : topo) {
    state[ci] = {0, opts.training_batch, false};
  }

  const auto is_ready = [&](int ci) {
    for (const int dep : model.components[ci].deps) {
      if (model.components[dep].trainable) {
        continue;  // Cross-iteration: trainable outputs are not needed.
      }
      if (!state.at(dep).complete(model.components[dep].num_layers())) {
        return false;
      }
    }
    return true;
  };

  const auto ready_components = [&] {
    std::vector<ReadyComponent> ready;
    for (const int ci : topo) {
      const ComponentState& cs = state.at(ci);
      if (cs.complete(model.components[ci].num_layers()) || !is_ready(ci)) {
        continue;
      }
      ready.push_back({ci, cs.next_layer, cs.head_remaining});
    }
    return ready;
  };

  if (opts.enable_fill) {
    const std::vector<Bubble> bubbles =
        extract_bubbles(schedule, opts.min_bubble_ms);
    for (std::size_t bi = 0; bi < bubbles.size(); ++bi) {
      const Bubble& bubble = bubbles[bi];
      const int d = static_cast<int>(bubble.devices.size());
      // Components can become ready *inside* a bubble (their dependencies
      // finish in it); the paper adds them to the ready set whenever that
      // happens, so keep filling the remaining span until nothing fits.
      double cursor = bubble.span.start;
      for (int round = 0; round < 8; ++round) {
        FfcInput input;
        input.ready = ready_components();
        if (input.ready.empty()) {
          break;  // Everything placed.
        }
        input.bubble_ms = bubble.span.end - cursor;
        if (input.bubble_ms < opts.min_bubble_ms) {
          break;
        }
        input.idle_devices = d;
        input.training_batch = opts.training_batch;
        const std::optional<BubbleFillCandidate> candidate = fill_one_bubble(
            *db_, input, opts.partial_local_grid, opts.split_overhead_ms,
            opts.enable_partial);
        if (!candidate.has_value() || candidate->exec_ms <= 0.0) {
          break;
        }
      const auto emplace = [&](int component, int layer, double samples,
                               bool partial, double duration) {
        PlacedFrozenOp placed;
        placed.bubble_index = static_cast<int>(bi);
        placed.component = component;
        placed.layer = layer;
        placed.samples = samples;
        placed.partial = partial;
        placed.start_ms = cursor;
        placed.end_ms = cursor + duration;
        placed.devices = bubble.devices;
        cursor = placed.end_ms;
        result.filled_device_ms += duration * d;
        PipelineOp op = to_pipeline_op(
            placed, partial ? OpKind::kFrozenForwardPartial
                            : OpKind::kFrozenForward);
        // Device timelines carry the per-device (local) sample count.
        op.samples = samples / d;
        for (const int device : bubble.devices) {
          result.filled_schedule.devices[device].ops.push_back(op);
        }
        result.placed.push_back(std::move(placed));
      };
      for (std::size_t i = 0; i < input.ready.size(); ++i) {
        const ReadyComponent& rc = input.ready[i];
        ComponentState& cs = state.at(rc.component);
        for (int j = 0; j < candidate->full_layers[i]; ++j) {
          const int layer = rc.next_layer + j;
          const double samples =
              layer == rc.next_layer ? rc.head_remaining
                                     : opts.training_batch;
          emplace(rc.component, layer, samples, false,
                  frozen_layer_ms(*db_, rc.component, layer, samples, d));
          cs.next_layer = layer + 1;
          cs.head_remaining = opts.training_batch;
        }
      }
      if (candidate->partial.has_value()) {
        const PartialBatchLayer& p = *candidate->partial;
        ComponentState& cs = state.at(p.component);
        DPIPE_ENSURE(cs.next_layer == p.layer, "partial layer out of order");
        emplace(p.component, p.layer, p.samples, true,
                frozen_layer_ms(*db_, p.component, p.layer, p.samples, d) +
                    opts.split_overhead_ms);
        cs.head_remaining -= p.samples;
        if (cs.head_remaining <= 0.0) {
          cs.next_layer = p.layer + 1;
          cs.head_remaining = opts.training_batch;
        }
      }
      }  // round loop
    }
  }

  // Whatever did not fit runs after the flush, data-parallel on all
  // devices of the group (§5).
  {
    std::vector<int> all_devices(schedule.group_size);
    for (int i = 0; i < schedule.group_size; ++i) {
      all_devices[i] = i;
    }
    double cursor = schedule.makespan_ms;
    for (const int ci : topo) {
      ComponentState& cs = state.at(ci);
      const int num_layers = model.components[ci].num_layers();
      while (!cs.complete(num_layers)) {
        const int layer = cs.next_layer;
        const double samples = cs.head_remaining;
        const double duration = frozen_layer_ms(*db_, ci, layer, samples,
                                                schedule.group_size);
        PlacedFrozenOp placed;
        placed.bubble_index = -1;
        placed.component = ci;
        placed.layer = layer;
        placed.samples = samples;
        placed.partial = false;
        placed.start_ms = cursor;
        placed.end_ms = cursor + duration;
        placed.devices = all_devices;
        cursor += duration;
        result.leftover_ms += duration;
        PipelineOp op = to_pipeline_op(placed, OpKind::kLeftoverForward);
        op.samples = samples / schedule.group_size;
        for (const int device : all_devices) {
          result.filled_schedule.devices[device].ops.push_back(op);
        }
        result.leftover.push_back(std::move(placed));
        cs.next_layer = layer + 1;
        cs.head_remaining = opts.training_batch;
      }
    }
    result.filled_schedule.makespan_ms += result.leftover_ms;
    result.filled_schedule.compute_makespan_ms =
        std::max(result.filled_schedule.compute_makespan_ms, cursor);
  }

  for (DeviceTimeline& device : result.filled_schedule.devices) {
    std::sort(device.ops.begin(), device.ops.end(),
              [](const PipelineOp& a, const PipelineOp& b) {
                return a.start_ms < b.start_ms;
              });
  }
  return result;
}

}  // namespace dpipe
