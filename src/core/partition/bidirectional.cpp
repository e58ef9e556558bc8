#include "core/partition/bidirectional.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/partition/stage_cache.h"

namespace dpipe {

PartitionOptions bidirectional_options(PartitionOptions opts) {
  // Communication in the two directions competes for links (§4.2).
  opts.comm_competition_factor = 2.0;
  return opts;
}

namespace {

void check_bidirectional(const DpPartitioner& partitioner, int down_component,
                         int up_component, const PartitionOptions& opts) {
  const ModelDesc& model = partitioner.db().model();
  const auto num_components = static_cast<int>(model.components.size());
  DPIPE_REQUIRE(down_component >= 0 && down_component < num_components &&
                    up_component >= 0 && up_component < num_components,
                "component index out of range");
  DPIPE_REQUIRE(down_component != up_component,
                "bidirectional pipelining needs two distinct backbones");
  DPIPE_REQUIRE(model.components[down_component].trainable &&
                    model.components[up_component].trainable,
                "both backbones must be trainable");
  DPIPE_REQUIRE(opts.force_uniform_replicas,
                "bidirectional partitioning supports uniform replication only");
  DPIPE_REQUIRE(opts.group_size % opts.num_stages == 0,
                "uniform replication requires S to divide D");
  DPIPE_REQUIRE(
      opts.num_stages <= model.components[down_component].num_layers() &&
          opts.num_stages <= model.components[up_component].num_layers(),
      "more stages than layers in a backbone");
  DPIPE_REQUIRE(!opts.self_conditioning,
                "self-conditioned CDM partitioning is not supported");
}

}  // namespace

BiPartitionResult partition_bidirectional(const DpPartitioner& partitioner,
                                          int down_component,
                                          int up_component,
                                          const PartitionOptions& opts,
                                          StageCostCache* cache) {
  check_bidirectional(partitioner, down_component, up_component, opts);
  // Chain stage k holds down stage k and up stage S-1-k (the up pipeline's
  // stage 0 sits at the chain end).
  ChainPartitionResult chain = partitioner.partition_chain(
      {{down_component, PipeDirection::kDown},
       {up_component, PipeDirection::kUp}},
      bidirectional_options(opts), cache);
  BiPartitionResult result;
  result.down_stages = std::move(chain.lanes[0]);
  result.up_stages = std::move(chain.lanes[1]);
  result.t0_ms = chain.t0_ms;
  result.y_ms = chain.y_ms;
  // Both pipelines contribute M micro-batches to the paired stable phase.
  result.m_cdm = 2 * opts.num_microbatches;
  result.upper_bound_ms = chain.upper_bound_ms;
  return result;
}

BiPartitionResult brute_force_bidirectional(const DpPartitioner& partitioner,
                                            int down_component,
                                            int up_component,
                                            const PartitionOptions& opts_in,
                                            StageCostCache* cache) {
  check_bidirectional(partitioner, down_component, up_component, opts_in);
  const PartitionOptions opts = bidirectional_options(opts_in);
  const ModelDesc& model = partitioner.db().model();
  const int Ld = model.components[down_component].num_layers();
  const int Lu = model.components[up_component].num_layers();
  const int S = opts.num_stages;
  const int r = opts.group_size / S;
  const int m_cdm = 2 * opts.num_microbatches;
  const double coeff = static_cast<double>(m_cdm) + 2.0 * S - 2.0;

  std::vector<int> down_counts(S), up_counts(S);
  double best_objective = std::numeric_limits<double>::infinity();
  BiPartitionResult best;

  const std::function<void(int, int, int)> recurse = [&](int index,
                                                         int down_left,
                                                         int up_left) {
    if (index == S) {
      if (down_left != 0 || up_left != 0) {
        return;
      }
      double w = 0.0;
      double y = 0.0;
      std::vector<StagePlan> down_stages, up_stages;
      int dl = 0;
      int up_hi = Lu;
      for (int s = 0; s < S; ++s) {
        const int chain_begin = s * r;
        const StageCost dc = partitioner.stage_cost(
            down_component, dl, dl + down_counts[s], r, chain_begin, opts,
            PipeDirection::kDown, cache);
        const StageCost uc = partitioner.stage_cost(
            up_component, up_hi - up_counts[s], up_hi, r, chain_begin, opts,
            PipeDirection::kUp, cache);
        down_stages.push_back(partitioner.make_stage(
            opts, dl, dl + down_counts[s], chain_begin, r));
        up_stages.push_back(partitioner.make_stage(
            opts, up_hi - up_counts[s], up_hi, chain_begin, r));
        dl += down_counts[s];
        up_hi -= up_counts[s];
        w = std::max({w, dc.t0_ms, uc.t0_ms});
        y = std::max({y, dc.y_ms, uc.y_ms});
      }
      const double obj = coeff * w + y;
      if (obj < best_objective) {
        best_objective = obj;
        best.down_stages = std::move(down_stages);
        // Up stages were built in chain order; up pipeline order is the
        // reverse.
        std::reverse(up_stages.begin(), up_stages.end());
        best.up_stages = std::move(up_stages);
        best.t0_ms = w;
        best.y_ms = y;
        best.m_cdm = m_cdm;
        best.upper_bound_ms = obj;
      }
      return;
    }
    for (int dt = 1; dt <= down_left - (S - index - 1); ++dt) {
      for (int ut = 1; ut <= up_left - (S - index - 1); ++ut) {
        down_counts[index] = dt;
        up_counts[index] = ut;
        recurse(index + 1, down_left - dt, up_left - ut);
      }
    }
  };
  recurse(0, Ld, Lu);
  DPIPE_ENSURE(!best.down_stages.empty(),
               "brute force bidirectional found no feasible assignment");
  return best;
}

}  // namespace dpipe
