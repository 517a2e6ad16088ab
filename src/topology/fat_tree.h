// k-ary fat-tree builder (three switch tiers: ToR/edge, aggregation, core),
// with hosts below ToRs and GPUs below hosts connected by NVLink.
//
// Standard wiring: k pods; each pod has k/2 ToRs and k/2 aggregation
// switches; (k/2)^2 cores arranged in k/2 groups of k/2.  Aggregation switch
// `a` of every pod connects to all k/2 cores of group `a`.
#pragma once

#include <vector>

#include "src/common/units.h"
#include "src/topology/topology.h"

namespace peel {

struct FatTreeConfig {
  /// Fat-tree degree; must be even and >= 2.
  int k = 8;
  /// Hosts (servers) attached to each ToR; -1 means the canonical k/2.
  int hosts_per_tor = -1;
  /// GPUs per host, each attached over NVLink. 0 means hosts are the
  /// endpoints (no GPU tier).
  int gpus_per_host = 8;
  GbpsRate fabric_rate = 100_gbps;   ///< switch-to-switch and NIC links (§4)
  GbpsRate nvlink_rate = 7200_gbps;  ///< 900 GBps NVLink/NVSwitch (§4)
  SimTime link_propagation = 500;    ///< per-hop propagation, ns
};

/// A built fat-tree: the graph plus tier indices for direct addressing.
struct FatTree {
  FatTreeConfig config;
  Topology topo;
  std::vector<NodeId> cores;  ///< group-major: core (g, j) at index g*(k/2)+j
  std::vector<NodeId> aggs;   ///< pod-major: agg (p, a) at index p*(k/2)+a
  std::vector<NodeId> tors;   ///< pod-major: tor (p, t) at index p*(k/2)+t
  std::vector<NodeId> hosts;  ///< creation order = locality order
  std::vector<NodeId> gpus;   ///< creation order = locality order

  [[nodiscard]] int pods() const noexcept { return config.k; }
  [[nodiscard]] int tors_per_pod() const noexcept { return config.k / 2; }
  [[nodiscard]] int aggs_per_pod() const noexcept { return config.k / 2; }
  [[nodiscard]] int hosts_per_tor() const noexcept {
    return config.hosts_per_tor < 0 ? config.k / 2 : config.hosts_per_tor;
  }

  [[nodiscard]] NodeId tor_at(int pod, int t) const {
    return tors[static_cast<std::size_t>(pod * tors_per_pod() + t)];
  }
  [[nodiscard]] NodeId agg_at(int pod, int a) const {
    return aggs[static_cast<std::size_t>(pod * aggs_per_pod() + a)];
  }
  [[nodiscard]] NodeId core_at(int group, int j) const {
    return cores[static_cast<std::size_t>(group * (config.k / 2) + j)];
  }

  // Link ids in build_fat_tree's wiring order. Each names the upward
  // direction; the downward one is the id + 1.
  /// agg(pod, a) -> core(a, j).
  [[nodiscard]] LinkId agg_core_link(int pod, int a, int j) const {
    const int half = config.k / 2;
    return 2 * ((pod * half + a) * half + j);
  }
  /// tor(pod, t) -> agg(pod, a).
  [[nodiscard]] LinkId tor_agg_link(int pod, int t, int a) const {
    const int half = config.k / 2;
    return 2 * (config.k * half * half + (pod * half + t) * half + a);
  }
  /// hosts[host] -> its ToR.
  [[nodiscard]] LinkId host_link(int host) const {
    const int half = config.k / 2;
    return 2 * (2 * config.k * half * half + host * (1 + config.gpus_per_host));
  }
  /// gpus[gpu] -> its host.
  [[nodiscard]] LinkId gpu_link(int gpu) const {
    const int g = config.gpus_per_host;
    return host_link(gpu / g) + 2 * (1 + gpu % g);
  }

  /// Endpoints of collectives: GPUs if gpus_per_host > 0, else hosts.
  [[nodiscard]] const std::vector<NodeId>& endpoints() const noexcept {
    return config.gpus_per_host > 0 ? gpus : hosts;
  }
};

[[nodiscard]] FatTree build_fat_tree(const FatTreeConfig& config);

}  // namespace peel
