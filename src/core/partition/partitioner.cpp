#include "core/partition/partitioner.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/pareto.h"
#include "common/units.h"
#include "core/partition/stage_cache.h"

namespace dpipe {

DpPartitioner::DpPartitioner(const ProfileDb& db, const CommModel& comm)
    : db_(&db), comm_(&comm) {}

void DpPartitioner::check_options(int backbone_component,
                                  const PartitionOptions& opts) const {
  const auto num_components = static_cast<int>(db_->model().components.size());
  DPIPE_REQUIRE(backbone_component >= 0 && backbone_component < num_components,
                "backbone component index out of range");
  DPIPE_REQUIRE(db_->model().components[backbone_component].trainable,
                "partitioned component must be trainable");
  const int L = db_->model().components[backbone_component].num_layers();
  DPIPE_REQUIRE(opts.num_stages >= 1, "need at least one stage");
  DPIPE_REQUIRE(opts.num_stages <= L, "more stages than layers");
  DPIPE_REQUIRE(opts.num_microbatches >= 1, "need at least one micro-batch");
  DPIPE_REQUIRE(opts.group_size >= opts.num_stages,
                "group must have at least one device per stage");
  DPIPE_REQUIRE(opts.data_parallel_degree >= 1, "dp degree must be >= 1");
  DPIPE_REQUIRE(opts.microbatch_size > 0.0,
                "micro-batch size must be positive");
  DPIPE_REQUIRE(
      opts.device_ranks.empty() ||
          static_cast<int>(opts.device_ranks.size()) == opts.group_size,
      "device_ranks must list exactly group_size ranks");
  if (opts.force_uniform_replicas) {
    DPIPE_REQUIRE(opts.group_size % opts.num_stages == 0,
                  "uniform replication requires S to divide D");
  }
}

int DpPartitioner::rank_at(const PartitionOptions& opts, int pos) const {
  DPIPE_REQUIRE(pos >= 0 && pos < opts.group_size,
                "chain position out of range");
  return opts.device_ranks.empty() ? pos : opts.device_ranks[pos];
}

std::vector<int> DpPartitioner::sync_group(const PartitionOptions& opts,
                                           int chain_begin,
                                           int replicas) const {
  // Canonical layout: data-parallel group g occupies global ranks
  // [g * D, (g+1) * D); device_ranks (if given) describe group 0. A
  // synthetic virtual chain overrides the stride with the physical device
  // count (see PartitionOptions::dp_rank_stride).
  const int stride =
      opts.dp_rank_stride > 0 ? opts.dp_rank_stride : opts.group_size;
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(replicas) *
                opts.data_parallel_degree);
  for (int g = 0; g < opts.data_parallel_degree; ++g) {
    for (int i = 0; i < replicas; ++i) {
      group.push_back(rank_at(opts, chain_begin + i) + g * stride);
    }
  }
  return group;
}

StageCost DpPartitioner::stage_cost(int backbone_component, int lo, int hi,
                                    int replicas, int chain_begin,
                                    const PartitionOptions& opts,
                                    PipeDirection direction,
                                    StageCostCache* cache) const {
  if (cache == nullptr) {
    return compute_stage_cost(backbone_component, lo, hi, replicas,
                              chain_begin, opts, direction);
  }
  cache->bind(opts);
  const StageCostCache::Key key{backbone_component, lo,          hi,
                                replicas,           chain_begin, direction};
  if (const StageCost* hit = cache->find(key)) {
    return *hit;
  }
  const StageCost cost = compute_stage_cost(backbone_component, lo, hi,
                                            replicas, chain_begin, opts,
                                            direction);
  cache->insert(key, cost);
  return cost;
}

StageCost DpPartitioner::compute_stage_cost(int backbone_component, int lo,
                                            int hi, int replicas,
                                            int chain_begin,
                                            const PartitionOptions& opts,
                                            PipeDirection direction) const {
  DPIPE_REQUIRE(replicas >= 1, "stage needs at least one replica");
  DPIPE_REQUIRE(hi > lo, "stage must contain at least one layer");
  const double local_batch = opts.microbatch_size / replicas;

  StageCost cost;
  cost.fwd_ms = db_->fwd_range_ms(backbone_component, lo, hi, local_batch);
  cost.bwd_ms = db_->bwd_range_ms(backbone_component, lo, hi, local_batch);

  double comm_plain = 0.0;
  double comm_sc = 0.0;
  if (lo > 0) {
    // Incoming boundary: forward activation in, activation gradient out.
    // Down stages receive across their low-chain edge, up stages across
    // their high-chain edge.
    const double size_mb =
        db_->layer(backbone_component, lo - 1).output_mb * local_batch;
    const int edge = direction == PipeDirection::kDown
                         ? chain_begin
                         : chain_begin + replicas;
    const int prev_rank =
        rank_at(opts, std::clamp(edge - 1, 0, opts.group_size - 1));
    const int this_rank =
        rank_at(opts, std::clamp(edge, 0, opts.group_size - 1));
    const LinkSpec link = comm_->p2p_link(prev_rank, this_rank);
    const double scale = opts.comm_competition_factor;
    cost.boundary_ms =
        transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms;
    comm_plain = scale * 2.0 * cost.boundary_ms;
    // Self-conditioning adds a second forward activation transfer (Eqn 17).
    comm_sc = scale * 3.0 * cost.boundary_ms;
  }
  cost.comm_in_ms = comm_plain;

  const double t0_plain = std::max(cost.fwd_ms + cost.bwd_ms, comm_plain);
  if (opts.self_conditioning) {
    const double t0_sc = std::max(2.0 * cost.fwd_ms + cost.bwd_ms, comm_sc);
    // Self-conditioning activates with probability p; the DP optimizes the
    // expectation of the two per-stage bounds (§4.3).
    cost.t0_ms =
        opts.self_cond_prob * t0_sc + (1.0 - opts.self_cond_prob) * t0_plain;
  } else {
    cost.t0_ms = t0_plain;
  }

  const double grad_mb =
      kGradCommBytesFactor * db_->grad_range_mb(backbone_component, lo, hi);
  cost.sync_ms =
      comm_->allreduce_ms(grad_mb, sync_group(opts, chain_begin, replicas));
  // Lower bound on the overlap credit: backward time of all preceding
  // layers, as if executed on this stage's replicas (Eqn 5).
  cost.comp_ms = db_->bwd_range_ms(backbone_component, 0, lo, local_batch);
  // A fully-hidden synchronization contributes no extra time (clamp at 0;
  // Eqn 6 is a gap, not a credit).
  cost.y_ms = std::max(0.0, cost.sync_ms - cost.comp_ms);
  return cost;
}

double DpPartitioner::feedback_ms(int backbone_component,
                                  const PartitionOptions& opts) const {
  if (!opts.self_conditioning) {
    return 0.0;
  }
  const int L = db_->model().components[backbone_component].num_layers();
  // Upper bound (§4.3): whole micro-batch output over the p2p link between
  // the chain ends.
  const double size_mb =
      db_->layer(backbone_component, L - 1).output_mb * opts.microbatch_size;
  const LinkSpec link = comm_->p2p_link(rank_at(opts, opts.group_size - 1),
                                        rank_at(opts, 0));
  const double t_f = transfer_ms(size_mb, link.bandwidth_gbps) +
                     link.latency_ms;
  return opts.self_cond_prob * t_f;
}

double DpPartitioner::objective(const std::vector<StageCost>& stages,
                                int backbone_component,
                                const PartitionOptions& opts) const {
  DPIPE_REQUIRE(!stages.empty(), "objective needs at least one stage");
  double w = 0.0;
  double y = 0.0;
  for (const StageCost& s : stages) {
    w = std::max(w, s.t0_ms);
    y = std::max(y, s.y_ms);
  }
  const double coeff = static_cast<double>(opts.num_microbatches) +
                       2.0 * static_cast<double>(stages.size()) - 2.0;
  return coeff * w + y + feedback_ms(backbone_component, opts);
}

PartitionResult DpPartitioner::partition_single(
    int backbone_component, const PartitionOptions& opts,
    StageCostCache* cache) const {
  check_options(backbone_component, opts);
  const int L = db_->model().components[backbone_component].num_layers();
  const int S = opts.num_stages;
  const int D = opts.group_size;

  // DP over states (layers placed, devices used) per stage count, keeping a
  // Pareto frontier of (W = max T0, Y = max gap) with backpointers. Stages
  // are appended front-to-back along the device chain; this is the mirror
  // image of the paper's last-stage-first recursion (Eqns 7-8) and explores
  // the same assignment space.
  struct Transition {
    std::size_t prev_tag = 0;
    int layer_begin = 0;
    int layer_end = 0;
    int replicas = 0;
    int chain_begin = 0;
  };
  constexpr std::size_t kRootTag = std::numeric_limits<std::size_t>::max();
  std::vector<Transition> transitions;

  using StateKey = std::pair<int, int>;  // (layers placed, devices used)
  std::vector<std::map<StateKey, ParetoFrontier>> frontiers(S + 1);
  {
    ParetoFrontier root;
    root.insert({0.0, 0.0, kRootTag});
    frontiers[0].emplace(StateKey{0, 0}, std::move(root));
  }

  const int uniform_r = opts.force_uniform_replicas ? D / S : 0;

  const double scalarize_coeff =
      static_cast<double>(opts.num_microbatches) + 2.0 * S - 2.0;
  for (int s = 0; s < S; ++s) {
    for (auto& [key, frontier] : frontiers[s]) {
      if (opts.scalarize_dp_states && frontier.size() > 1) {
        // Ablation mode: keep only the scalarized-best point per state.
        ParetoFrontier pruned;
        pruned.insert(frontier.best(scalarize_coeff));
        frontier = std::move(pruned);
      }
      const auto [layers_placed, devices_used] = key;
      const int stages_left = S - s;
      // Each remaining stage needs at least one layer and one device.
      const int max_end = L - (stages_left - 1);
      for (int end = layers_placed + 1; end <= max_end; ++end) {
        const int r_lo = opts.force_uniform_replicas ? uniform_r : 1;
        const int r_hi = opts.force_uniform_replicas
                             ? uniform_r
                             : D - devices_used - (stages_left - 1);
        for (int r = r_lo; r <= r_hi; ++r) {
          if (stages_left == 1 && (end != L || devices_used + r != D)) {
            continue;  // Last stage must consume all layers and devices.
          }
          const StageCost sc =
              stage_cost(backbone_component, layers_placed, end, r,
                         devices_used, opts, PipeDirection::kDown, cache);
          for (const ParetoPoint& p : frontier.points()) {
            ParetoPoint next;
            next.w = std::max(p.w, sc.t0_ms);
            next.y = std::max(p.y, sc.y_ms);
            next.tag = transitions.size();
            if (frontiers[s + 1][{end, devices_used + r}].insert(next)) {
              transitions.push_back(
                  {p.tag, layers_placed, end, r, devices_used});
            }
          }
        }
      }
    }
  }

  const auto final_it = frontiers[S].find({L, D});
  DPIPE_ENSURE(final_it != frontiers[S].end() && !final_it->second.empty(),
               "partition DP found no feasible assignment");
  const double coeff =
      static_cast<double>(opts.num_microbatches) + 2.0 * S - 2.0;
  const ParetoPoint best = final_it->second.best(coeff);

  PartitionResult result;
  result.t0_ms = best.w;
  result.y_ms = best.y;
  result.feedback_ms = feedback_ms(backbone_component, opts);
  result.upper_bound_ms = coeff * best.w + best.y + result.feedback_ms;

  // Walk backpointers (stages come out last-first).
  std::size_t tag = best.tag;
  while (tag != kRootTag) {
    DPIPE_ENSURE(tag < transitions.size(), "dangling DP backpointer");
    const Transition& t = transitions[tag];
    StagePlan stage;
    stage.layer_begin = t.layer_begin;
    stage.layer_end = t.layer_end;
    stage.replicas = t.replicas;
    for (int i = 0; i < t.replicas; ++i) {
      stage.device_ranks.push_back(rank_at(opts, t.chain_begin + i));
    }
    result.stages.push_back(std::move(stage));
    tag = t.prev_tag;
  }
  std::reverse(result.stages.begin(), result.stages.end());
  DPIPE_ENSURE(static_cast<int>(result.stages.size()) == S,
               "reconstructed stage count mismatch");
  return result;
}

}  // namespace dpipe
