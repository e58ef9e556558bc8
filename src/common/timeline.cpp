#include "common/timeline.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.h"

namespace dpipe {

namespace {

constexpr double kEps = 1e-9;

}  // namespace

std::vector<Span> normalize_spans(std::vector<Span> spans) {
  std::erase_if(spans, [](const Span& s) { return s.length() <= kEps; });
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::vector<Span> merged;
  for (const Span& s : spans) {
    if (!merged.empty() && s.start <= merged.back().end + kEps) {
      merged.back().end = std::max(merged.back().end, s.end);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

double total_length(const std::vector<Span>& spans) {
  double sum = 0.0;
  for (const Span& s : normalize_spans(spans)) {
    sum += s.length();
  }
  return sum;
}

std::vector<Span> complement_spans(std::vector<Span> busy, double horizon) {
  DPIPE_REQUIRE(horizon >= 0.0, "horizon must be non-negative");
  const std::vector<Span> norm = normalize_spans(std::move(busy));
  std::vector<Span> idle;
  double cursor = 0.0;
  for (const Span& s : norm) {
    const double begin = std::clamp(s.start, 0.0, horizon);
    if (begin - cursor > kEps) {
      idle.push_back({cursor, begin});
    }
    cursor = std::max(cursor, std::min(s.end, horizon));
  }
  if (horizon - cursor > kEps) {
    idle.push_back({cursor, horizon});
  }
  return idle;
}

std::vector<IdleInterval> sweep_idle_intervals(
    const std::vector<std::vector<Span>>& idle_per_device, double horizon) {
  // Event sweep: +1 at idle-span start, -1 at idle-span end, per device.
  // Between consecutive event times the idle set is constant by construction.
  std::map<double, std::vector<std::pair<int, bool>>> events;
  for (int d = 0; d < static_cast<int>(idle_per_device.size()); ++d) {
    for (const Span& s : idle_per_device[d]) {
      if (s.length() <= kEps) {
        continue;
      }
      events[std::min(s.start, horizon)].emplace_back(d, true);
      events[std::min(s.end, horizon)].emplace_back(d, false);
    }
  }
  std::vector<IdleInterval> out;
  std::set<int> idle_now;
  double prev_time = 0.0;
  auto flush = [&](double now) {
    if (now - prev_time > kEps && !idle_now.empty()) {
      IdleInterval iv;
      iv.span = {prev_time, now};
      iv.idle_devices.assign(idle_now.begin(), idle_now.end());
      out.push_back(std::move(iv));
    }
    prev_time = now;
  };
  for (const auto& [time, changes] : events) {
    flush(time);
    for (const auto& [device, becomes_idle] : changes) {
      if (becomes_idle) {
        idle_now.insert(device);
      } else {
        idle_now.erase(device);
      }
    }
  }
  flush(horizon);
  return out;
}

}  // namespace dpipe
