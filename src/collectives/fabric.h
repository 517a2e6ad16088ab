// Non-owning view unifying the two fabric flavors so collective schemes can
// be written once.  Exactly one of fat_tree / leaf_spine is set.
#pragma once

#include <stdexcept>
#include <vector>

#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {

struct Fabric {
  const FatTree* fat_tree = nullptr;
  const LeafSpine* leaf_spine = nullptr;

  [[nodiscard]] const Topology& topo() const {
    return fat_tree ? fat_tree->topo : leaf_spine->topo;
  }
  [[nodiscard]] const std::vector<NodeId>& endpoints() const {
    return fat_tree ? fat_tree->endpoints() : leaf_spine->endpoints();
  }
  [[nodiscard]] int hosts_per_rack() const {
    return fat_tree ? fat_tree->hosts_per_tor() : leaf_spine->config.hosts_per_leaf;
  }
  [[nodiscard]] const std::vector<NodeId>& hosts() const {
    return fat_tree ? fat_tree->hosts : leaf_spine->hosts;
  }

  /// hosts()[host] -> its ToR; the id + 1 is the ToR -> host direction.
  [[nodiscard]] LinkId host_link(int host) const {
    return fat_tree ? fat_tree->host_link(host) : leaf_spine->host_link(host);
  }
  /// endpoints()[gpu] -> its host (GPU endpoints); the id + 1 descends.
  [[nodiscard]] LinkId gpu_link(int gpu) const {
    return fat_tree ? fat_tree->gpu_link(gpu) : leaf_spine->gpu_link(gpu);
  }

  static Fabric of(const FatTree& ft) { return Fabric{&ft, nullptr}; }
  static Fabric of(const LeafSpine& ls) { return Fabric{nullptr, &ls}; }
};

/// Splits a message into `chunks` pipelined pieces (paper §4 uses 8): equal
/// parts with the remainder spread over the first chunks; never produces an
/// empty chunk (fewer chunks than requested for tiny messages).
[[nodiscard]] inline std::vector<Bytes> split_chunks(Bytes message, int chunks) {
  if (message <= 0 || chunks < 1) {
    throw std::invalid_argument("split_chunks: bad arguments");
  }
  const auto n = static_cast<Bytes>(chunks) > message
                     ? static_cast<int>(message)
                     : chunks;
  std::vector<Bytes> out(static_cast<std::size_t>(n));
  const Bytes base = message / n;
  const Bytes extra = message % n;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = base + (static_cast<Bytes>(i) < extra ? 1 : 0);
  }
  return out;
}

}  // namespace peel
