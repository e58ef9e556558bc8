#pragma once

// What one benchmark process reports: named metrics with unit and sample
// count, correctness gates, op counts, and free-form provenance strings.
// Printed as one JSON object on the last line of stdout; run.py turns it
// into the human report and the machine-readable result line.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< Observations behind the value.
};

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::size_t attempted = 0;  ///< Timed operations started.
  std::size_t failed = 0;     ///< Operations that threw or failed a check.
  std::map<std::string, std::string> info;
  std::map<std::string, Metric> metrics;
  std::vector<Gate> gates;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Records a gate; returns `ok` so callers can count failures.
  bool gate(const std::string& name, bool ok, const std::string& detail = "");
  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::string to_json() const;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Arithmetic mean; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// 128-bit FNV fingerprint (common/hash.h) of the IEEE bit patterns of
/// `values`, as 32 hex digits.
[[nodiscard]] std::string bits_hash(const std::vector<double>& values);

}  // namespace dpbench
