#include "service/request.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace dpipe {

namespace {

void write_candidates(std::ostream& out, const char* label,
                      const std::vector<int>& values) {
  out << label << ' ' << values.size();
  for (const int v : values) {
    out << ' ' << v;
  }
  out << '\n';
}

std::vector<int> read_candidates(std::istream& in, const std::string& label) {
  std::string keyword;
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == label,
                "expected " + label + " line");
  std::size_t count = 0;
  DPIPE_REQUIRE(static_cast<bool>(in >> count),
                "malformed " + label + " count");
  // Each value takes at least two bytes (separator and digit): a count the
  // rest of the payload cannot hold is rejected before it sizes anything.
  const std::streamsize left =
      std::max<std::streamsize>(in.rdbuf()->in_avail(), 0);
  DPIPE_REQUIRE(count <= static_cast<std::size_t>(left) / 2,
                label + " count exceeds the payload");
  std::vector<int> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    DPIPE_REQUIRE(static_cast<bool>(in >> values[i]), "truncated " + label);
  }
  return values;
}

}  // namespace

std::string canonical_request_text(const PlanRequest& request) {
  PlannerOptions options = request.options;
  Planner::apply_default_candidates(options, request.cluster.world_size());
  std::ostringstream out;
  out.precision(17);
  out << "dpipe-plan-request v2\n";
  write_canonical(out, request.model);
  write_canonical(out, request.cluster);
  out << "options global_batch=" << options.global_batch
      << " fill=" << (options.enable_fill ? 1 : 0)
      << " partial=" << (options.enable_partial ? 1 : 0)
      << " mem=" << (options.check_memory ? 1 : 0)
      << " int_micro=" << (options.integer_microbatches ? 1 : 0)
      << " prune=" << (options.enable_pruning ? 1 : 0)
      << " bindable=" << (options.require_bindable_placement ? 1 : 0)
      << " family=" << static_cast<int>(options.schedule_family) << '\n';
  write_candidates(out, "stage_candidates", options.stage_candidates);
  write_candidates(out, "micro_candidates", options.micro_candidates);
  write_candidates(out, "group_candidates", options.group_candidates);
  write_candidates(out, "vstage_candidates", options.vstage_candidates);
  write_canonical(out, options.profiler);
  out << "end\n";
  return out.str();
}

PlanRequest parse_request_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  DPIPE_REQUIRE(std::getline(in, line) && line == "dpipe-plan-request v2",
                "not a dpipe-plan-request v2 payload");
  PlanRequest request;
  request.model = read_canonical_model(in);
  request.cluster = read_canonical_cluster(in);
  std::string keyword;
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "options",
                "expected options line");
  // Each value must be one finite number filling the rest of its token: no
  // trailing bytes, no inf/nan, nothing out of double range.
  const auto field = [&in](const std::string& key) {
    std::string token;
    DPIPE_REQUIRE(static_cast<bool>(in >> token) && token.size() > key.size() &&
                      token.compare(0, key.size(), key) == 0,
                  "expected options field " + key);
    const char* last = token.data() + token.size();
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data() + key.size(), last, value);
    DPIPE_REQUIRE(ec == std::errc() && end == last && std::isfinite(value),
                  "malformed options field " + token);
    return value;
  };
  const auto flag = [&field](const std::string& key) {
    const double value = field(key);
    DPIPE_REQUIRE(value == 0.0 || value == 1.0, "options field " + key +
                                                    " must be 0 or 1");
    return value == 1.0;
  };
  request.options.global_batch = field("global_batch=");
  request.options.enable_fill = flag("fill=");
  request.options.enable_partial = flag("partial=");
  request.options.check_memory = flag("mem=");
  request.options.integer_microbatches = flag("int_micro=");
  request.options.enable_pruning = flag("prune=");
  request.options.require_bindable_placement = flag("bindable=");
  const double family = field("family=");
  DPIPE_REQUIRE(
      family >= static_cast<double>(ScheduleFamily::k1F1B) &&
          family <= static_cast<double>(ScheduleFamily::kInterleaved) &&
          family == std::floor(family),
      "options field family= names no schedule family");
  request.options.schedule_family =
      static_cast<ScheduleFamily>(static_cast<int>(family));
  request.options.stage_candidates = read_candidates(in, "stage_candidates");
  request.options.micro_candidates = read_candidates(in, "micro_candidates");
  request.options.group_candidates = read_candidates(in, "group_candidates");
  request.options.vstage_candidates =
      read_candidates(in, "vstage_candidates");
  request.options.profiler = read_canonical_profiler_options(in);
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "end",
                "expected request terminator");
  return request;
}

Fingerprint request_fingerprint(const PlanRequest& request) {
  return fingerprint_bytes(canonical_request_text(request));
}

Fingerprint model_fingerprint(const ModelDesc& model) {
  std::ostringstream out;
  write_canonical(out, model);
  return fingerprint_bytes(out.str());
}

Fingerprint cluster_fingerprint(const ClusterSpec& cluster) {
  std::ostringstream out;
  write_canonical(out, cluster);
  return fingerprint_bytes(out.str());
}

}  // namespace dpipe
