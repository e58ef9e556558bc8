#include "cluster/comm_model.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace dpipe {

CommModel::CommModel(ClusterSpec cluster) : cluster_(std::move(cluster)) {
  validate(cluster_);
}

LinkSpec CommModel::p2p_link(int src_rank, int dst_rank) const {
  return cluster_.same_machine(src_rank, dst_rank) ? cluster_.intra
                                                   : cluster_.inter;
}

double CommModel::p2p_ms(double size_mb, int src_rank, int dst_rank) const {
  DPIPE_REQUIRE(size_mb >= 0.0, "size must be non-negative");
  if (src_rank == dst_rank) {
    return 0.0;
  }
  const LinkSpec link = p2p_link(src_rank, dst_rank);
  return transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms;
}

double CommModel::p2p_ms(double size_mb, int src_rank, int dst_rank,
                         double depart_ms, const fault::FaultModel& faults,
                         std::uint64_t msg_key,
                         fault::FaultStats* stats) const {
  return p2p_ms(size_mb, src_rank, dst_rank) +
         faults.link_penalty_ms(src_rank, dst_rank, depart_ms, msg_key,
                                stats);
}

LinkSpec CommModel::group_link(const std::vector<int>& group) const {
  DPIPE_REQUIRE(!group.empty(), "communication group must be non-empty");
  bool spans_machines = false;
  for (const int rank : group) {
    if (!cluster_.same_machine(rank, group.front())) {
      spans_machines = true;
      break;
    }
  }
  return spans_machines ? cluster_.inter : cluster_.intra;
}

double CommModel::allreduce_ms(double size_mb,
                               const std::vector<int>& group) const {
  DPIPE_REQUIRE(size_mb >= 0.0, "size must be non-negative");
  const auto n = static_cast<double>(group.size());
  if (group.size() <= 1 || size_mb == 0.0) {
    return 0.0;
  }
  // Count machines spanned and the (max) ranks per machine.
  std::vector<int> per_machine(cluster_.num_machines, 0);
  int machines = 0;
  int max_per_machine = 0;
  for (const int rank : group) {
    const int m = cluster_.machine_of(rank);
    if (per_machine[m]++ == 0) {
      ++machines;
    }
    max_per_machine = std::max(max_per_machine, per_machine[m]);
  }
  if (machines == 1) {
    // Flat ring on NVSwitch: 2(n-1) steps moving size/n each.
    const double volume = 2.0 * (n - 1.0) / n * size_mb;
    return transfer_ms(volume, cluster_.intra.bandwidth_gbps) +
           2.0 * (n - 1.0) * cluster_.intra.latency_ms;
  }
  // Hierarchical (NCCL-style): intra-node reduce-scatter, inter-node ring
  // allreduce on per-rank chunks, intra-node allgather.
  const double g = static_cast<double>(max_per_machine);
  const double m = static_cast<double>(machines);
  const double intra_phase =
      (g - 1.0) / g * size_mb / cluster_.intra.bandwidth_gbps +
      (g - 1.0) * cluster_.intra.latency_ms;
  const double chunk_mb = size_mb / g;
  const double inter_phase =
      2.0 * (m - 1.0) / m * chunk_mb / cluster_.inter.bandwidth_gbps +
      2.0 * (m - 1.0) * cluster_.inter.latency_ms;
  return 2.0 * intra_phase + inter_phase;
}

double CommModel::allreduce_ms(double size_mb, const std::vector<int>& group,
                               double when_ms,
                               const fault::FaultModel& faults,
                               std::uint64_t msg_key,
                               fault::FaultStats* stats) const {
  return allreduce_ms(size_mb, group) +
         faults.collective_penalty_ms(group, when_ms, msg_key, stats);
}

double CommModel::allgather_ms(double size_mb,
                               const std::vector<int>& group) const {
  DPIPE_REQUIRE(size_mb >= 0.0, "size must be non-negative");
  const auto n = static_cast<double>(group.size());
  if (group.size() <= 1 || size_mb == 0.0) {
    return 0.0;
  }
  const LinkSpec link = group_link(group);
  const double volume = (n - 1.0) / n * size_mb;
  return transfer_ms(volume, link.bandwidth_gbps) +
         (n - 1.0) * link.latency_ms;
}

double CommModel::reduce_scatter_ms(double size_mb,
                                    const std::vector<int>& group) const {
  // Same ring traffic pattern as allgather.
  return allgather_ms(size_mb, group);
}

double CommModel::broadcast_ms(double size_mb,
                               const std::vector<int>& group) const {
  DPIPE_REQUIRE(size_mb >= 0.0, "size must be non-negative");
  if (group.size() <= 1 || size_mb == 0.0) {
    return 0.0;
  }
  const LinkSpec link = group_link(group);
  const double hops = std::ceil(std::log2(static_cast<double>(group.size())));
  return transfer_ms(size_mb, link.bandwidth_gbps) + hops * link.latency_ms;
}

}  // namespace dpipe
