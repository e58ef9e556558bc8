#include "baselines/baselines.h"
#include "common/units.h"

namespace dpipe {

namespace {

BaselineReport run_one_backbone(const ProfileDb& db, const CommModel& comm,
                                double batch, int backbone, int num_devices,
                                bool zero3) {
  DdpOptions opts;
  opts.only_backbone = backbone;
  opts.num_devices = num_devices;
  return zero3 ? run_zero3(db, comm, batch, opts)
               : run_ddp(db, comm, batch, opts);
}

}  // namespace

BaselineReport run_deepspeed_s(const ProfileDb& db, const CommModel& comm,
                               double per_backbone_batch, bool zero3) {
  const ModelDesc& model = db.model();
  DPIPE_REQUIRE(model.backbone_ids.size() >= 2,
                "DeepSpeed-S applies to cascaded models");
  const int world = comm.cluster().world_size();
  // Sequential: each backbone trains on ALL devices; iteration times add
  // (§6, Metrics: total batch of all backbones / sum of iteration times).
  double total_iter = 0.0;
  double peak_mem = 0.0;
  bool feasible = true;
  for (std::size_t b = 0; b < model.backbone_ids.size(); ++b) {
    const BaselineReport r = run_one_backbone(
        db, comm, per_backbone_batch, static_cast<int>(b), world, zero3);
    total_iter += r.iteration_ms;
    peak_mem = std::max(peak_mem, r.peak_memory_gb);
    feasible = feasible && r.memory_feasible;
  }
  BaselineReport report;
  report.name = zero3 ? "DeepSpeed-ZeRO-3-S" : "DeepSpeed-S";
  report.iteration_ms = total_iter;
  report.samples_per_second =
      per_backbone_batch * static_cast<double>(model.backbone_ids.size()) /
      ms_to_seconds(total_iter);
  report.peak_memory_gb = peak_mem;
  report.memory_feasible = feasible;
  return report;
}

BaselineReport run_deepspeed_p(const ProfileDb& db, const CommModel& comm,
                               double per_backbone_batch, bool zero3) {
  const ModelDesc& model = db.model();
  const auto num_backbones = static_cast<int>(model.backbone_ids.size());
  DPIPE_REQUIRE(num_backbones >= 2, "DeepSpeed-P applies to cascaded models");
  const int world = comm.cluster().world_size();
  DPIPE_REQUIRE(world % num_backbones == 0,
                "device count must divide evenly across backbones");
  const int per_set = world / num_backbones;
  // Parallel: each backbone trains on its own device set; throughput is the
  // sum of batch/iteration over backbones (§6, Metrics).
  double slowest_iter = 0.0;
  double throughput = 0.0;
  double peak_mem = 0.0;
  bool feasible = true;
  for (int b = 0; b < num_backbones; ++b) {
    const BaselineReport r =
        run_one_backbone(db, comm, per_backbone_batch, b, per_set, zero3);
    slowest_iter = std::max(slowest_iter, r.iteration_ms);
    throughput += r.samples_per_second;
    peak_mem = std::max(peak_mem, r.peak_memory_gb);
    feasible = feasible && r.memory_feasible;
  }
  BaselineReport report;
  report.name = zero3 ? "DeepSpeed-ZeRO-3-P" : "DeepSpeed-P";
  report.iteration_ms = slowest_iter;
  report.samples_per_second = throughput;
  report.peak_memory_gb = peak_mem;
  report.memory_feasible = feasible;
  return report;
}

}  // namespace dpipe
