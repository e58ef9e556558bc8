#include "core/fill/ffc.h"

#include <algorithm>

namespace dpipe {

namespace {

/// Samples the head layer (possibly partially processed) or a later layer
/// (full batch) of ready component i still has to process.
double remaining_samples(const ReadyComponent& rc, int layer,
                         double training_batch) {
  return layer == rc.next_layer ? rc.head_remaining : training_batch;
}

/// Execution time of the full-batch layers of candidate `k`.
double candidate_ms(const ProfileDb& db, const FfcInput& input,
                    const std::vector<int>& k) {
  double total = 0.0;
  for (std::size_t i = 0; i < input.ready.size(); ++i) {
    const ReadyComponent& rc = input.ready[i];
    for (int j = 0; j < k[i]; ++j) {
      const int layer = rc.next_layer + j;
      total += frozen_layer_ms(
          db, rc.component, layer,
          remaining_samples(rc, layer, input.training_batch),
          input.idle_devices);
    }
  }
  return total;
}

void ffc_recurse(const ProfileDb& db, const FfcInput& input, std::size_t i,
                 double budget_ms, std::vector<int>& current,
                 std::vector<std::vector<int>>& out) {
  const ReadyComponent& rc = input.ready[i];
  const int num_layers = db.model().components[rc.component].num_layers();
  // Lines 2-5 of Alg. 2: maximum k0 consecutive layers that fit.
  int k0 = 0;
  double t = 0.0;
  while (rc.next_layer + k0 < num_layers) {
    const int layer = rc.next_layer + k0;
    const double layer_ms = frozen_layer_ms(
        db, rc.component, layer,
        remaining_samples(rc, layer, input.training_batch),
        input.idle_devices);
    if (t + layer_ms > budget_ms) {
      break;
    }
    t += layer_ms;
    ++k0;
  }
  if (i + 1 == input.ready.size()) {
    // Last component: take the maximum (line 7 of Alg. 2).
    current[i] = k0;
    out.push_back(current);
    return;
  }
  // Lines 9-13: try every prefix length, recurse into the next component
  // with the remaining budget.
  for (int k = k0; k >= 0; --k) {
    double used = 0.0;
    for (int j = 0; j < k; ++j) {
      const int layer = rc.next_layer + j;
      used += frozen_layer_ms(
          db, rc.component, layer,
          remaining_samples(rc, layer, input.training_batch),
          input.idle_devices);
    }
    current[i] = k;
    ffc_recurse(db, input, i + 1, budget_ms - used, current, out);
  }
}

}  // namespace

double frozen_layer_ms(const ProfileDb& db, int component, int layer,
                       double samples, int devices) {
  DPIPE_REQUIRE(devices >= 1, "need at least one idle device");
  DPIPE_REQUIRE(samples >= 0.0, "samples must be non-negative");
  if (samples == 0.0) {
    return 0.0;
  }
  return db.fwd_ms(component, layer, samples / devices);
}

std::vector<std::vector<int>> full_batch_candidates(const ProfileDb& db,
                                                    const FfcInput& input) {
  DPIPE_REQUIRE(input.idle_devices >= 1, "bubble must have idle devices");
  DPIPE_REQUIRE(input.training_batch > 0.0, "training batch must be positive");
  if (input.ready.empty()) {
    return {};
  }
  std::vector<std::vector<int>> out;
  std::vector<int> current(input.ready.size(), 0);
  ffc_recurse(db, input, 0, input.bubble_ms, current, out);
  return out;
}

std::optional<BubbleFillCandidate> fill_one_bubble(
    const ProfileDb& db, const FfcInput& input,
    const std::vector<double>& partial_local_grid, double split_overhead_ms,
    bool enable_partial) {
  const std::vector<std::vector<int>> candidates =
      full_batch_candidates(db, input);
  if (candidates.empty()) {
    return std::nullopt;
  }

  BubbleFillCandidate best;
  best.exec_ms = -1.0;
  for (const std::vector<int>& k : candidates) {
    const double base_ms = candidate_ms(db, input, k);
    // Candidate without a partial layer.
    if (base_ms > best.exec_ms) {
      best = {k, std::nullopt, base_ms};
    }
    if (!enable_partial) {
      continue;
    }
    // Lines 2-5 of Alg. 1: for each component h, try appending its next
    // unscheduled layer on the largest valid partial batch.
    for (std::size_t h = 0; h < input.ready.size(); ++h) {
      const ReadyComponent& rc = input.ready[h];
      const int layer = rc.next_layer + k[h];
      const int num_layers =
          db.model().components[rc.component].num_layers();
      if (layer >= num_layers) {
        continue;
      }
      const double layer_remaining =
          remaining_samples(rc, layer, input.training_batch);
      // Largest grid value (local batch per device) that fits the time
      // budget and the layer's remaining samples (getValidNumSamples).
      for (auto it = partial_local_grid.rbegin();
           it != partial_local_grid.rend(); ++it) {
        const double samples = *it * input.idle_devices;
        if (samples > layer_remaining) {
          continue;
        }
        const double partial_ms =
            frozen_layer_ms(db, rc.component, layer, samples,
                            input.idle_devices) +
            split_overhead_ms;
        if (base_ms + partial_ms > input.bubble_ms) {
          continue;
        }
        if (base_ms + partial_ms > best.exec_ms) {
          best = {k, PartialBatchLayer{rc.component, layer, samples},
                  base_ms + partial_ms};
        }
        break;  // Grid is ascending; the first fit from the back is max.
      }
    }
  }
  if (best.exec_ms < 0.0) {
    return std::nullopt;
  }
  return best;
}

}  // namespace dpipe
