#include <numeric>

#include "baselines/baselines.h"
#include "common/units.h"
#include "engine/memory.h"

namespace dpipe {

namespace {

struct DdpCompute {
  double non_trainable_fwd_ms = 0.0;
  double trainable_fwd_ms = 0.0;  ///< Incl. expected self-cond extra pass.
  double trainable_bwd_ms = 0.0;
  double grad_mb = 0.0;
  double param_mb = 0.0;
};

DdpCompute ddp_compute(const ProfileDb& db, double local_batch,
                       int only_backbone) {
  const ModelDesc& model = db.model();
  DdpCompute out;
  const double sc_factor =
      model.self_conditioning ? 1.0 + model.self_cond_prob : 1.0;
  for (std::size_t ci = 0; ci < model.components.size(); ++ci) {
    const ComponentDesc& comp = model.components[ci];
    const int L = comp.num_layers();
    const int c = static_cast<int>(ci);
    if (!comp.trainable) {
      if (only_backbone < 0) {
        out.non_trainable_fwd_ms += db.fwd_range_ms(c, 0, L, local_batch);
      }
      continue;
    }
    if (only_backbone >= 0 && model.backbone_ids[only_backbone] != c) {
      continue;
    }
    out.trainable_fwd_ms +=
        sc_factor * db.fwd_range_ms(c, 0, L, local_batch);
    out.trainable_bwd_ms += db.bwd_range_ms(c, 0, L, local_batch);
    out.grad_mb += db.grad_range_mb(c, 0, L);
    out.param_mb += db.param_range_mb(c, 0, L);
  }
  return out;
}

std::vector<int> all_ranks(int n) {
  std::vector<int> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

}  // namespace

BaselineReport run_ddp(const ProfileDb& db, const CommModel& comm,
                       double global_batch, const DdpOptions& opts) {
  DPIPE_REQUIRE(global_batch > 0.0, "global batch must be positive");
  const int world = opts.num_devices > 0 ? opts.num_devices
                                         : comm.cluster().world_size();
  const double local_batch = global_batch / world;
  const DdpCompute c = ddp_compute(db, local_batch, opts.only_backbone);

  const double sync =
      comm.allreduce_ms(kGradCommBytesFactor * c.grad_mb, all_ranks(world)) +
      opts.bucket_count * opts.bucket_overhead_ms;
  const double exposed_sync =
      std::max(opts.exposed_floor * sync,
               sync - opts.overlap_credit * c.trainable_bwd_ms);
  const double optimizer_ms =
      transfer_ms(3.0 * c.param_mb, comm.cluster().device.mem_bw_gbps);
  const double iteration = c.non_trainable_fwd_ms + c.trainable_fwd_ms +
                           c.trainable_bwd_ms + exposed_sync + optimizer_ms;

  BaselineReport report;
  report.name = "DeepSpeed";
  report.iteration_ms = iteration;
  report.samples_per_second = global_batch / ms_to_seconds(iteration);
  report.sync_ms = sync;
  report.sync_fraction = std::min(sync, iteration) / iteration;
  const MemoryReport memory =
      estimate_data_parallel_memory(db, local_batch, world);
  report.peak_memory_gb = memory.peak_gb;
  report.memory_feasible = memory.fits(comm.cluster().device.memory_gb);
  return report;
}

BaselineReport run_zero3(const ProfileDb& db, const CommModel& comm,
                         double global_batch, const DdpOptions& opts) {
  DPIPE_REQUIRE(global_batch > 0.0, "global batch must be positive");
  const int world = opts.num_devices > 0 ? opts.num_devices
                                         : comm.cluster().world_size();
  const double local_batch = global_batch / world;
  const DdpCompute c = ddp_compute(db, local_batch, opts.only_backbone);
  const std::vector<int> group = all_ranks(world);

  // ZeRO-3 gathers each layer's weights before forward AND backward and
  // reduce-scatters gradients: 3x the parameter volume in collectives,
  // partially overlapped with compute (prefetching).
  const double gather = 2.0 * comm.allgather_ms(c.param_mb, group);
  const double reduce =
      comm.reduce_scatter_ms(kGradCommBytesFactor * c.grad_mb, group);
  const double collectives =
      gather + reduce + opts.bucket_count * opts.bucket_overhead_ms;
  const double compute = c.trainable_fwd_ms + c.trainable_bwd_ms;
  const double exposed =
      std::max(opts.exposed_floor * collectives,
               collectives - opts.overlap_credit * compute);
  const double optimizer_ms =
      transfer_ms(3.0 * c.param_mb / world,
                  comm.cluster().device.mem_bw_gbps);
  const double iteration =
      c.non_trainable_fwd_ms + compute + exposed + optimizer_ms;

  BaselineReport report;
  report.name = "DeepSpeed-ZeRO-3";
  report.iteration_ms = iteration;
  report.samples_per_second = global_batch / ms_to_seconds(iteration);
  report.sync_ms = collectives;
  report.sync_fraction = std::min(collectives, iteration) / iteration;
  const MemoryReport memory = estimate_zero3_memory(db, local_batch, world);
  report.peak_memory_gb = memory.peak_gb;
  report.memory_feasible = memory.fits(comm.cluster().device.memory_gb);
  return report;
}

}  // namespace dpipe
