#include "model/model.h"

#include <algorithm>
#include <array>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>

namespace dpipe {

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kHighResConv:
      return "highres_conv";
    case LayerKind::kResBlock:
      return "res_block";
    case LayerKind::kAttention:
      return "attention";
    case LayerKind::kTransformerBlock:
      return "transformer_block";
    case LayerKind::kLinear:
      return "linear";
    case LayerKind::kNorm:
      return "norm";
    case LayerKind::kEmbedding:
      return "embedding";
    case LayerKind::kUpsample:
      return "upsample";
    case LayerKind::kDownsample:
      return "downsample";
    case LayerKind::kOther:
      return "other";
  }
  return "unknown";
}

LayerKind layer_kind_from_string(const std::string& text) {
  static constexpr std::array<LayerKind, 11> kAll = {
      LayerKind::kConv,      LayerKind::kHighResConv,
      LayerKind::kResBlock,  LayerKind::kAttention,
      LayerKind::kTransformerBlock,
      LayerKind::kLinear,    LayerKind::kNorm,
      LayerKind::kEmbedding, LayerKind::kUpsample,
      LayerKind::kDownsample, LayerKind::kOther};
  for (const LayerKind kind : kAll) {
    if (text == to_string(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown layer kind: " + text);
}

double ComponentDesc::total_param_mb() const {
  return std::accumulate(
      layers.begin(), layers.end(), 0.0,
      [](double acc, const LayerDesc& l) { return acc + l.param_mb; });
}

double ComponentDesc::total_fwd_gflop() const {
  return std::accumulate(
      layers.begin(), layers.end(), 0.0,
      [](double acc, const LayerDesc& l) { return acc + l.fwd_gflop; });
}

const ComponentDesc& ModelDesc::backbone(int cascade_index) const {
  DPIPE_REQUIRE(cascade_index >= 0 &&
                    cascade_index < static_cast<int>(backbone_ids.size()),
                "cascade index out of range");
  return components[backbone_ids[cascade_index]];
}

std::vector<int> ModelDesc::non_trainable_topo_order() const {
  // Kahn's algorithm restricted to non-trainable components. Dependencies on
  // trainable components are ignored here: by cross-iteration pipelining the
  // non-trainable part of iteration i+1 only needs iteration i+1's *inputs*.
  const int n = static_cast<int>(components.size());
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<int>> children(n);
  for (int i = 0; i < n; ++i) {
    if (components[i].trainable) {
      continue;
    }
    for (const int dep : components[i].deps) {
      if (!components[dep].trainable) {
        ++indegree[i];
        children[dep].push_back(i);
      }
    }
  }
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (!components[i].trainable && indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  std::vector<int> order;
  while (!ready.empty()) {
    // Pop the smallest index for determinism.
    const auto it = std::min_element(ready.begin(), ready.end());
    const int node = *it;
    ready.erase(it);
    order.push_back(node);
    for (const int child : children[node]) {
      if (--indegree[child] == 0) {
        ready.push_back(child);
      }
    }
  }
  int non_trainable_count = 0;
  for (const ComponentDesc& c : components) {
    if (!c.trainable) {
      ++non_trainable_count;
    }
  }
  DPIPE_ENSURE(static_cast<int>(order.size()) == non_trainable_count,
               "non-trainable component dependencies contain a cycle");
  return order;
}

double ModelDesc::trainable_param_mb() const {
  double sum = 0.0;
  for (const ComponentDesc& c : components) {
    if (c.trainable) {
      sum += c.total_param_mb();
    }
  }
  return sum;
}

void validate(const ModelDesc& model) {
  DPIPE_REQUIRE(!model.components.empty(), "model has no components");
  DPIPE_REQUIRE(!model.backbone_ids.empty(), "model has no backbone");
  const int n = static_cast<int>(model.components.size());
  for (const int id : model.backbone_ids) {
    DPIPE_REQUIRE(id >= 0 && id < n, "backbone id out of range");
    DPIPE_REQUIRE(model.components[id].trainable, "backbone must be trainable");
    DPIPE_REQUIRE(!model.components[id].layers.empty(),
                  "backbone has no layers");
  }
  for (const ComponentDesc& c : model.components) {
    for (const int dep : c.deps) {
      DPIPE_REQUIRE(dep >= 0 && dep < n, "component dependency out of range");
    }
    for (const LayerDesc& l : c.layers) {
      DPIPE_REQUIRE(l.fwd_gflop >= 0.0 && l.param_mb >= 0.0 &&
                        l.output_mb >= 0.0 && l.act_mb >= 0.0,
                    "layer sizes must be non-negative");
      DPIPE_REQUIRE(l.bwd_flop_factor >= 0.0, "bwd_flop_factor must be >= 0");
    }
  }
  DPIPE_REQUIRE(model.self_cond_prob >= 0.0 && model.self_cond_prob <= 1.0,
                "self_cond_prob must be a probability");
  // Throws if the non-trainable dependency graph is cyclic.
  (void)model.non_trainable_topo_order();
}

namespace {

/// Reads the remainder of the current line after a `key=` token that holds
/// a free-form name (names are written last on their line for this reason).
std::string read_name_field(std::istream& in, const std::string& key) {
  std::string token;
  DPIPE_REQUIRE(static_cast<bool>(in >> token) && token.size() >= key.size() &&
                    token.compare(0, key.size(), key) == 0,
                "expected " + key + " field");
  std::string rest;
  std::getline(in, rest);
  return token.substr(key.size()) + rest;
}

double read_field(std::istream& in, const std::string& key) {
  std::string token;
  DPIPE_REQUIRE(static_cast<bool>(in >> token) && token.size() > key.size() &&
                    token.compare(0, key.size(), key) == 0,
                "expected " + key + " field");
  return std::stod(token.substr(key.size()));
}

void expect_keyword(std::istream& in, const std::string& keyword) {
  std::string token;
  DPIPE_REQUIRE(static_cast<bool>(in >> token) && token == keyword,
                "expected keyword " + keyword);
}

}  // namespace

void write_canonical(std::ostream& out, const ModelDesc& model) {
  const auto flags = out.flags();
  const auto precision = out.precision(17);
  out << "dpipe-model v1\n";
  out << "name=" << model.name << '\n';
  out << "self_conditioning " << (model.self_conditioning ? 1 : 0) << ' '
      << model.self_cond_prob << '\n';
  out << "image_size " << model.image_size << '\n';
  out << "components " << model.components.size() << '\n';
  for (const ComponentDesc& c : model.components) {
    out << "component trainable=" << (c.trainable ? 1 : 0)
        << " deps=" << c.deps.size();
    for (const int dep : c.deps) {
      out << ' ' << dep;
    }
    out << " layers=" << c.layers.size() << " name=" << c.name << '\n';
    for (const LayerDesc& l : c.layers) {
      out << "layer kind=" << to_string(l.kind) << " fwd=" << l.fwd_gflop
          << " bwdf=" << l.bwd_flop_factor << " param=" << l.param_mb
          << " grad=" << l.grad_mb << " out=" << l.output_mb
          << " act=" << l.act_mb << " ovf=" << l.overhead_fwd_ms
          << " ovb=" << l.overhead_bwd_ms << " eff=" << l.efficiency
          << " name=" << l.name << '\n';
    }
  }
  out << "backbones " << model.backbone_ids.size();
  for (const int id : model.backbone_ids) {
    out << ' ' << id;
  }
  out << '\n';
  out.precision(precision);
  out.flags(flags);
}

ModelDesc read_canonical_model(std::istream& in) {
  std::string line;
  // Tolerate a leading blank from a previous line-oriented reader.
  while (std::getline(in, line) && line.empty()) {
  }
  DPIPE_REQUIRE(line == "dpipe-model v1", "not a dpipe-model v1 block");
  ModelDesc model;
  model.name = read_name_field(in, "name=");
  // The name line's getline consumed its newline; subsequent reads are
  // token-based until the next name field.
  expect_keyword(in, "self_conditioning");
  int self_cond = 0;
  DPIPE_REQUIRE(static_cast<bool>(in >> self_cond >> model.self_cond_prob),
                "malformed self_conditioning line");
  model.self_conditioning = self_cond != 0;
  expect_keyword(in, "image_size");
  DPIPE_REQUIRE(static_cast<bool>(in >> model.image_size),
                "malformed image_size");
  expect_keyword(in, "components");
  std::size_t num_components = 0;
  DPIPE_REQUIRE(static_cast<bool>(in >> num_components),
                "malformed components");
  model.components.reserve(num_components);
  for (std::size_t ci = 0; ci < num_components; ++ci) {
    expect_keyword(in, "component");
    ComponentDesc c;
    c.trainable = read_field(in, "trainable=") != 0.0;
    const auto num_deps = static_cast<std::size_t>(read_field(in, "deps="));
    c.deps.resize(num_deps);
    for (std::size_t d = 0; d < num_deps; ++d) {
      DPIPE_REQUIRE(static_cast<bool>(in >> c.deps[d]), "truncated deps list");
    }
    const auto num_layers =
        static_cast<std::size_t>(read_field(in, "layers="));
    c.name = read_name_field(in, "name=");
    c.layers.reserve(num_layers);
    for (std::size_t li = 0; li < num_layers; ++li) {
      expect_keyword(in, "layer");
      LayerDesc l;
      std::string kind;
      DPIPE_REQUIRE(static_cast<bool>(in >> kind) && kind.size() > 5 &&
                        kind.compare(0, 5, "kind=") == 0,
                    "expected kind= field");
      l.kind = layer_kind_from_string(kind.substr(5));
      l.fwd_gflop = read_field(in, "fwd=");
      l.bwd_flop_factor = read_field(in, "bwdf=");
      l.param_mb = read_field(in, "param=");
      l.grad_mb = read_field(in, "grad=");
      l.output_mb = read_field(in, "out=");
      l.act_mb = read_field(in, "act=");
      l.overhead_fwd_ms = read_field(in, "ovf=");
      l.overhead_bwd_ms = read_field(in, "ovb=");
      l.efficiency = read_field(in, "eff=");
      l.name = read_name_field(in, "name=");
      c.layers.push_back(std::move(l));
    }
    model.components.push_back(std::move(c));
  }
  expect_keyword(in, "backbones");
  std::size_t num_backbones = 0;
  DPIPE_REQUIRE(static_cast<bool>(in >> num_backbones), "malformed backbones");
  model.backbone_ids.resize(num_backbones);
  for (std::size_t b = 0; b < num_backbones; ++b) {
    DPIPE_REQUIRE(static_cast<bool>(in >> model.backbone_ids[b]),
                  "truncated backbone list");
  }
  std::getline(in, line);  // Consume the trailing newline.
  return model;
}

}  // namespace dpipe
