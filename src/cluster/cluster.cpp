#include "cluster/cluster.h"

#include <istream>
#include <ostream>

namespace dpipe {

ClusterSpec make_p4de_cluster(int num_machines) {
  DPIPE_REQUIRE(num_machines >= 1, "need at least one machine");
  ClusterSpec cluster;
  cluster.num_machines = num_machines;
  cluster.devices_per_machine = 8;
  validate(cluster);
  return cluster;
}

void validate(const ClusterSpec& cluster) {
  DPIPE_REQUIRE(cluster.num_machines >= 1, "num_machines must be >= 1");
  DPIPE_REQUIRE(cluster.devices_per_machine >= 1,
                "devices_per_machine must be >= 1");
  DPIPE_REQUIRE(cluster.device.peak_tflops > 0.0,
                "peak_tflops must be positive");
  DPIPE_REQUIRE(cluster.device.memory_gb > 0.0, "memory_gb must be positive");
  DPIPE_REQUIRE(cluster.intra.bandwidth_gbps > 0.0 &&
                    cluster.inter.bandwidth_gbps > 0.0,
                "link bandwidth must be positive");
  DPIPE_REQUIRE(
      cluster.intra.latency_ms >= 0.0 && cluster.inter.latency_ms >= 0.0,
      "link latency must be non-negative");
}

void write_canonical(std::ostream& out, const ClusterSpec& cluster) {
  const auto flags = out.flags();
  const auto precision = out.precision(17);
  out << "dpipe-cluster v1\n";
  out << "shape " << cluster.num_machines << ' '
      << cluster.devices_per_machine << '\n';
  out << "device " << cluster.device.peak_tflops << ' '
      << cluster.device.memory_gb << ' ' << cluster.device.mem_bw_gbps
      << " name=" << cluster.device.name << '\n';
  out << "intra " << cluster.intra.bandwidth_gbps << ' '
      << cluster.intra.latency_ms << '\n';
  out << "inter " << cluster.inter.bandwidth_gbps << ' '
      << cluster.inter.latency_ms << '\n';
  out.precision(precision);
  out.flags(flags);
}

ClusterSpec read_canonical_cluster(std::istream& in) {
  std::string line;
  while (std::getline(in, line) && line.empty()) {
  }
  DPIPE_REQUIRE(line == "dpipe-cluster v1", "not a dpipe-cluster v1 block");
  ClusterSpec cluster;
  std::string keyword;
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "shape",
                "expected shape line");
  DPIPE_REQUIRE(static_cast<bool>(in >> cluster.num_machines >>
                                  cluster.devices_per_machine),
                "malformed shape line");
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "device",
                "expected device line");
  DPIPE_REQUIRE(static_cast<bool>(in >> cluster.device.peak_tflops >>
                                  cluster.device.memory_gb >>
                                  cluster.device.mem_bw_gbps),
                "malformed device line");
  std::string name_token;
  DPIPE_REQUIRE(static_cast<bool>(in >> name_token) && name_token.size() >= 5 &&
                    name_token.compare(0, 5, "name=") == 0,
                "expected device name= field");
  std::string rest;
  std::getline(in, rest);
  cluster.device.name = name_token.substr(5) + rest;
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "intra",
                "expected intra line");
  DPIPE_REQUIRE(static_cast<bool>(in >> cluster.intra.bandwidth_gbps >>
                                  cluster.intra.latency_ms),
                "malformed intra line");
  DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "inter",
                "expected inter line");
  DPIPE_REQUIRE(static_cast<bool>(in >> cluster.inter.bandwidth_gbps >>
                                  cluster.inter.latency_ms),
                "malformed inter line");
  std::getline(in, line);  // Consume the trailing newline.
  validate(cluster);
  return cluster;
}

}  // namespace dpipe
