#include "profiler/cost_model.h"

#include <cmath>

#include "common/units.h"

namespace dpipe {

AnalyticCostModel::AnalyticCostModel(DeviceSpec device, NoiseSource noise)
    : device_(std::move(device)), noise_(noise) {
  DPIPE_REQUIRE(device_.peak_tflops > 0.0, "device peak must be positive");
}

double AnalyticCostModel::default_efficiency(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv:
      return 0.30;
    case LayerKind::kHighResConv:
      return 0.12;  // Large-spatial convs are memory-bound.
    case LayerKind::kResBlock:
      return 0.30;
    case LayerKind::kAttention:
      return 0.25;
    case LayerKind::kTransformerBlock:
      return 0.45;
    case LayerKind::kLinear:
      return 0.50;
    case LayerKind::kNorm:
      return 0.05;
    case LayerKind::kEmbedding:
      return 0.10;
    case LayerKind::kUpsample:
    case LayerKind::kDownsample:
      return 0.20;
    case LayerKind::kOther:
      return 0.25;
  }
  return 0.25;
}

double AnalyticCostModel::rate_gflop_per_ms(const LayerDesc& layer) const {
  const double eff =
      layer.efficiency > 0.0 ? layer.efficiency : default_efficiency(layer.kind);
  // TFLOP/s == GFLOP/ms (see common/units.h).
  return eff * device_.peak_tflops;
}

double AnalyticCostModel::jitter(const LayerDesc& layer, double batch,
                                 bool backward) const {
  // Quantize fractional batches so the key is stable.
  const auto batch_key = static_cast<std::uint64_t>(std::llround(batch * 16.0));
  const std::uint64_t key = NoiseSource::key(
      NoiseSource::hash(layer.name), batch_key, backward ? 1u : 0u);
  return noise_.multiplier(key);
}

double AnalyticCostModel::fwd_ms(const LayerDesc& layer, double batch) const {
  DPIPE_REQUIRE(batch >= 0.0, "batch must be non-negative");
  if (batch == 0.0) {
    return 0.0;
  }
  const double compute =
      compute_ms(batch * layer.fwd_gflop, rate_gflop_per_ms(layer));
  return (compute + layer.overhead_fwd_ms) * jitter(layer, batch, false);
}

double AnalyticCostModel::bwd_ms(const LayerDesc& layer, double batch) const {
  DPIPE_REQUIRE(batch >= 0.0, "batch must be non-negative");
  if (batch == 0.0) {
    return 0.0;
  }
  const double compute = compute_ms(
      batch * layer.fwd_gflop * layer.bwd_flop_factor, rate_gflop_per_ms(layer));
  const double overhead = layer.overhead_fwd_ms + layer.overhead_bwd_ms;
  return (compute + overhead) * jitter(layer, batch, true);
}

}  // namespace dpipe
