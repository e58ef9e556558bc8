#include "profiler/profile_db.h"

#include <algorithm>

namespace dpipe {

std::vector<double> default_batch_grid() {
  return {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256};
}

ProfileDb::ProfileDb(const ModelDesc& model, const AnalyticCostModel& cost,
                     std::vector<double> batch_grid)
    : model_(model), batch_grid_(std::move(batch_grid)) {
  DPIPE_REQUIRE(!batch_grid_.empty(), "batch grid must be non-empty");
  DPIPE_REQUIRE(
      std::is_sorted(batch_grid_.begin(), batch_grid_.end()) &&
          std::adjacent_find(batch_grid_.begin(), batch_grid_.end()) ==
              batch_grid_.end(),
      "batch grid must be strictly increasing");
  DPIPE_REQUIRE(batch_grid_.front() > 0.0, "batch grid must be positive");
  validate(model_);

  const std::size_t grid = batch_grid_.size();
  components_.resize(model_.components.size());
  for (std::size_t ci = 0; ci < model_.components.size(); ++ci) {
    const ComponentDesc& comp = model_.components[ci];
    ComponentProfile& prof = components_[ci];
    const std::size_t num_layers = comp.layers.size();
    prof.layers.resize(num_layers);
    prof.prefix_fwd.assign(grid, std::vector<double>(num_layers + 1, 0.0));
    prof.prefix_bwd.assign(grid, std::vector<double>(num_layers + 1, 0.0));
    prof.prefix_grad_mb.assign(num_layers + 1, 0.0);
    prof.prefix_param_mb.assign(num_layers + 1, 0.0);
    prof.prefix_act_mb.assign(num_layers + 1, 0.0);
    for (std::size_t li = 0; li < num_layers; ++li) {
      const LayerDesc& l = comp.layers[li];
      LayerSamples& samples = prof.layers[li];
      samples.fwd_ms.resize(grid);
      samples.bwd_ms.resize(grid);
      for (std::size_t g = 0; g < grid; ++g) {
        samples.fwd_ms[g] = cost.fwd_ms(l, batch_grid_[g]);
        samples.bwd_ms[g] = cost.bwd_ms(l, batch_grid_[g]);
        prof.prefix_fwd[g][li + 1] = prof.prefix_fwd[g][li] + samples.fwd_ms[g];
        prof.prefix_bwd[g][li + 1] = prof.prefix_bwd[g][li] + samples.bwd_ms[g];
      }
      prof.prefix_grad_mb[li + 1] =
          prof.prefix_grad_mb[li] + l.effective_grad_mb();
      prof.prefix_param_mb[li + 1] = prof.prefix_param_mb[li] + l.param_mb;
      prof.prefix_act_mb[li + 1] = prof.prefix_act_mb[li] + l.act_mb;
    }
  }
}

ProfileDb::Segment ProfileDb::segment(double batch) const {
  // Binary search for the bracketing grid segment; clamp to the outermost
  // segments for extrapolation.
  const auto& grid = batch_grid_;
  std::size_t hi =
      std::upper_bound(grid.begin(), grid.end(), batch) - grid.begin();
  hi = std::clamp<std::size_t>(hi, 1, grid.size() - 1);
  const std::size_t lo = hi - 1;
  return {lo, hi, (batch - grid[lo]) / (grid[hi] - grid[lo])};
}

double ProfileDb::interpolate(const std::vector<double>& samples,
                              double batch) const {
  DPIPE_REQUIRE(batch >= 0.0, "batch must be non-negative");
  if (batch == 0.0) {
    return 0.0;
  }
  if (batch_grid_.size() == 1) {
    return samples[0] * batch / batch_grid_[0];
  }
  const Segment s = segment(batch);
  const double value = samples[s.lo] + s.t * (samples[s.hi] - samples[s.lo]);
  return std::max(0.0, value);
}

double ProfileDb::interpolate_range(
    const std::vector<std::vector<double>>& prefix, int lo, int hi,
    double batch) const {
  DPIPE_REQUIRE(batch >= 0.0, "batch must be non-negative");
  if (batch_grid_.size() == 1) {
    return (prefix[0][hi] - prefix[0][lo]) * batch / batch_grid_[0];
  }
  const Segment s = segment(batch);
  const double at_lo = prefix[s.lo][hi] - prefix[s.lo][lo];
  const double at_hi = prefix[s.hi][hi] - prefix[s.hi][lo];
  return std::max(0.0, at_lo + s.t * (at_hi - at_lo));
}

double ProfileDb::fwd_ms(int component, int layer, double batch) const {
  check_range(component, layer, layer + 1);
  return interpolate(components_[component].layers[layer].fwd_ms, batch);
}

double ProfileDb::bwd_ms(int component, int layer, double batch) const {
  check_range(component, layer, layer + 1);
  return interpolate(components_[component].layers[layer].bwd_ms, batch);
}

double ProfileDb::fwd_range_ms(int component, int lo, int hi,
                               double batch) const {
  check_range(component, lo, hi);
  if (lo == hi || batch == 0.0) {
    return 0.0;
  }
  return interpolate_range(components_[component].prefix_fwd, lo, hi, batch);
}

double ProfileDb::bwd_range_ms(int component, int lo, int hi,
                               double batch) const {
  check_range(component, lo, hi);
  if (lo == hi || batch == 0.0) {
    return 0.0;
  }
  return interpolate_range(components_[component].prefix_bwd, lo, hi, batch);
}

double ProfileDb::grad_range_mb(int component, int lo, int hi) const {
  check_range(component, lo, hi);
  const ComponentProfile& prof = components_[component];
  return prof.prefix_grad_mb[hi] - prof.prefix_grad_mb[lo];
}

double ProfileDb::param_range_mb(int component, int lo, int hi) const {
  check_range(component, lo, hi);
  const ComponentProfile& prof = components_[component];
  return prof.prefix_param_mb[hi] - prof.prefix_param_mb[lo];
}

double ProfileDb::act_range_mb(int component, int lo, int hi) const {
  check_range(component, lo, hi);
  const ComponentProfile& prof = components_[component];
  return prof.prefix_act_mb[hi] - prof.prefix_act_mb[lo];
}

const LayerDesc& ProfileDb::layer(int component, int layer) const {
  check_range(component, layer, layer + 1);
  return model_.components[component].layers[layer];
}

void ProfileDb::check_range(int component, int lo, int hi) const {
  DPIPE_REQUIRE(component >= 0 &&
                    component < static_cast<int>(model_.components.size()),
                "component index out of range");
  const int num_layers = model_.components[component].num_layers();
  DPIPE_REQUIRE(lo >= 0 && lo <= hi && hi <= num_layers,
                "layer range out of bounds");
}

}  // namespace dpipe
