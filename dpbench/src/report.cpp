#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string_view>

#include "common/hash.h"

namespace dpbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";  // run.py treats a non-finite metric as a failed gate.
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

bool Report::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  gates.push_back(Gate{name, ok, detail});
  return ok;
}

bool Report::correct() const {
  return failed == 0 && attempted > 0 &&
         std::all_of(gates.begin(), gates.end(),
                     [](const Gate& g) { return g.ok; });
}

std::string Report::to_json() const {
  std::string out = "{\"workload\": " + json_string(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"info\": {";
  bool first = true;
  for (const auto& [k, v] : info) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [k, m] : metrics) {
    out += (first ? "" : ", ") + json_string(k) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  out += "}, \"gates\": [";
  first = true;
  for (const Gate& g : gates) {
    out += std::string(first ? "" : ", ") + "{\"name\": " +
           json_string(g.name) + ", \"ok\": " + (g.ok ? "true" : "false") +
           ", \"detail\": " + json_string(g.detail) + "}";
    first = false;
  }
  return out + "]}";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string bits_hash(const std::vector<double>& values) {
  return dpipe::fingerprint_bytes(
             std::string_view(reinterpret_cast<const char*>(values.data()),
                              values.size() * sizeof(double)))
      .hex();
}

}  // namespace dpbench
