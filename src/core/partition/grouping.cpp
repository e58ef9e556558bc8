#include "core/partition/grouping.h"

#include <algorithm>
#include <numeric>

namespace dpipe {

namespace {

double backbone_weight(const ComponentDesc& backbone) {
  double flops = 0.0;
  for (const LayerDesc& l : backbone.layers) {
    flops += l.fwd_gflop * (1.0 + l.bwd_flop_factor);
  }
  return flops;
}

ComponentDesc concatenate(const ModelDesc& model, const std::string& name,
                          const std::vector<int>& cascade_members,
                          std::vector<int>& offsets) {
  ComponentDesc out;
  out.name = name;
  out.trainable = true;
  for (const int member : cascade_members) {
    const ComponentDesc& backbone = model.backbone(member);
    offsets.push_back(out.num_layers());
    for (const LayerDesc& l : backbone.layers) {
      out.layers.push_back(l);
    }
    for (const int dep : backbone.deps) {
      if (!model.components[dep].trainable &&
          std::find(out.deps.begin(), out.deps.end(), dep) ==
              out.deps.end()) {
        out.deps.push_back(dep);
      }
    }
  }
  return out;
}

}  // namespace

BackboneGrouping group_backbones(const ModelDesc& model) {
  validate(model);
  const auto num_backbones = static_cast<int>(model.backbone_ids.size());
  BackboneGrouping grouping;
  if (num_backbones <= 2) {
    grouping.grouped_model = model;
    grouping.down_members = {0};
    grouping.down_offsets = {0};
    if (num_backbones == 2) {
      grouping.up_members = {1};
      grouping.up_offsets = {0};
    }
    return grouping;
  }

  // Greedy balanced partition by fwd+bwd FLOPs: assign heaviest first to
  // the lighter group (longest-processing-time heuristic).
  std::vector<int> order(num_backbones);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return backbone_weight(model.backbone(a)) >
           backbone_weight(model.backbone(b));
  });
  double down_weight = 0.0;
  double up_weight = 0.0;
  for (const int member : order) {
    const double w = backbone_weight(model.backbone(member));
    if (down_weight <= up_weight) {
      grouping.down_members.push_back(member);
      down_weight += w;
    } else {
      grouping.up_members.push_back(member);
      up_weight += w;
    }
  }
  // Keep cascade order inside each group (the virtual backbone runs them
  // back to back).
  std::sort(grouping.down_members.begin(), grouping.down_members.end());
  std::sort(grouping.up_members.begin(), grouping.up_members.end());

  // Rebuild the model: all non-trainable components first (same indices),
  // then the two virtual backbones.
  ModelDesc grouped;
  grouped.name = model.name + "_grouped";
  grouped.image_size = model.image_size;
  grouped.self_conditioning = model.self_conditioning;
  grouped.self_cond_prob = model.self_cond_prob;
  std::vector<int> remap(model.components.size(), -1);
  {
    int next = 0;
    for (std::size_t ci = 0; ci < model.components.size(); ++ci) {
      if (!model.components[ci].trainable) {
        remap[ci] = next++;
      }
    }
  }
  for (std::size_t ci = 0; ci < model.components.size(); ++ci) {
    if (model.components[ci].trainable) {
      continue;
    }
    ComponentDesc copy = model.components[ci];
    // Frozen components may only depend on other frozen components in the
    // grouped model (cross-iteration semantics make trainable deps moot).
    std::erase_if(copy.deps, [&](int dep) {
      return model.components[dep].trainable;
    });
    for (int& dep : copy.deps) {
      dep = remap[dep];
      DPIPE_ENSURE(dep >= 0,
                   "frozen dependency remapped before its definition");
    }
    grouped.components.push_back(std::move(copy));
  }
  ComponentDesc down = concatenate(model, "virtual_down",
                                   grouping.down_members,
                                   grouping.down_offsets);
  ComponentDesc up = concatenate(model, "virtual_up", grouping.up_members,
                                 grouping.up_offsets);
  for (int& dep : down.deps) {
    dep = remap[dep];
  }
  for (int& dep : up.deps) {
    dep = remap[dep];
  }
  grouped.backbone_ids = {static_cast<int>(grouped.components.size()),
                          static_cast<int>(grouped.components.size()) + 1};
  grouped.components.push_back(std::move(down));
  grouped.components.push_back(std::move(up));
  validate(grouped);
  grouping.grouped_model = std::move(grouped);
  return grouping;
}

}  // namespace dpipe
