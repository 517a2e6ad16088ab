// Two-tier leaf–spine builder: every leaf (ToR) connects to every spine.
//
// The paper's robustness experiment (§4, Figure 7) uses 16 spines, 48 leaves,
// 2 servers per leaf, and 8 GPUs per server.  Spines are modeled as
// NodeKind::Core and leaves as NodeKind::Tor, so tree algorithms and the
// prefix data plane treat both fabrics uniformly (the whole leaf tier forms
// one logical "pod" for prefix addressing).
#pragma once

#include <vector>

#include "src/common/units.h"
#include "src/topology/topology.h"

namespace peel {

struct LeafSpineConfig {
  int spines = 16;
  int leaves = 48;
  int hosts_per_leaf = 2;
  int gpus_per_host = 8;
  GbpsRate fabric_rate = 100_gbps;
  GbpsRate nvlink_rate = 7200_gbps;
  SimTime link_propagation = 500;
};

struct LeafSpine {
  LeafSpineConfig config;
  Topology topo;
  std::vector<NodeId> spines;
  std::vector<NodeId> leaves;
  std::vector<NodeId> hosts;
  std::vector<NodeId> gpus;

  [[nodiscard]] const std::vector<NodeId>& endpoints() const noexcept {
    return config.gpus_per_host > 0 ? gpus : hosts;
  }

  // Link ids in build_leaf_spine's wiring order. Each names the upward
  // direction; the downward one is the id + 1.
  /// leaves[leaf] -> spines[spine].
  [[nodiscard]] LinkId leaf_spine_link(int leaf, int spine) const {
    return 2 * (leaf * config.spines + spine);
  }
  /// hosts[host] -> its leaf.
  [[nodiscard]] LinkId host_link(int host) const {
    return 2 * (config.leaves * config.spines + host * (1 + config.gpus_per_host));
  }
  /// gpus[gpu] -> its host.
  [[nodiscard]] LinkId gpu_link(int gpu) const {
    const int g = config.gpus_per_host;
    return host_link(gpu / g) + 2 * (1 + gpu % g);
  }
};

[[nodiscard]] LeafSpine build_leaf_spine(const LeafSpineConfig& config);

}  // namespace peel
