#include "core/partition/brute_force.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/partition/stage_cache.h"

namespace dpipe {

namespace {

/// Enumerates compositions of `total` into `parts` positive integers.
void for_each_composition(int total, int parts,
                          const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> current(parts, 0);
  const auto recurse = [&](auto&& self, int index, int remaining) -> void {
    if (index == parts - 1) {
      current[index] = remaining;
      if (remaining >= 1) {
        fn(current);
      }
      return;
    }
    for (int take = 1; take <= remaining - (parts - 1 - index); ++take) {
      current[index] = take;
      self(self, index + 1, remaining - take);
    }
  };
  recurse(recurse, 0, total);
}

}  // namespace

PartitionResult brute_force_partition(const DpPartitioner& partitioner,
                                      int backbone_component,
                                      const PartitionOptions& opts,
                                      StageCostCache* cache) {
  const int L = partitioner.db()
                    .model()
                    .components[backbone_component]
                    .num_layers();
  const int S = opts.num_stages;
  const int D = opts.group_size;
  DPIPE_REQUIRE(S >= 1 && S <= L, "invalid stage count");

  double best_objective = std::numeric_limits<double>::infinity();
  PartitionResult best;

  const auto evaluate = [&](const std::vector<int>& layer_counts,
                            const std::vector<int>& replica_counts) {
    std::vector<StageCost> costs;
    std::vector<StagePlan> stages;
    int layer = 0;
    int chain = 0;
    for (int s = 0; s < S; ++s) {
      const int lo = layer;
      const int hi = layer + layer_counts[s];
      const int r = replica_counts[s];
      costs.push_back(partitioner.stage_cost(backbone_component, lo, hi, r,
                                             chain, opts,
                                             PipeDirection::kDown, cache));
      StagePlan plan;
      plan.layer_begin = lo;
      plan.layer_end = hi;
      plan.replicas = r;
      for (int i = 0; i < r; ++i) {
        plan.device_ranks.push_back(
            opts.device_ranks.empty() ? chain + i
                                      : opts.device_ranks[chain + i]);
      }
      stages.push_back(std::move(plan));
      layer = hi;
      chain += r;
    }
    const double obj =
        partitioner.objective(costs, backbone_component, opts);
    if (obj < best_objective) {
      best_objective = obj;
      best.stages = std::move(stages);
      best.t0_ms = 0.0;
      best.y_ms = 0.0;
      for (const StageCost& c : costs) {
        best.t0_ms = std::max(best.t0_ms, c.t0_ms);
        best.y_ms = std::max(best.y_ms, c.y_ms);
      }
      best.feedback_ms = partitioner.feedback_ms(backbone_component, opts);
      best.upper_bound_ms = obj;
    }
  };

  for_each_composition(L, S, [&](const std::vector<int>& layer_counts) {
    if (opts.force_uniform_replicas) {
      evaluate(layer_counts, std::vector<int>(S, D / S));
    } else {
      for_each_composition(D, S, [&](const std::vector<int>& replicas) {
        evaluate(layer_counts, replicas);
      });
    }
  });
  DPIPE_ENSURE(!best.stages.empty(),
               "brute force found no feasible assignment");
  return best;
}

}  // namespace dpipe
