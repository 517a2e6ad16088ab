// Datacenter fabric model.
//
// A Topology is a directed multigraph of typed nodes (GPUs, host NICs, ToR /
// aggregation / core switches) and unidirectional links.  Builders
// (fat_tree.h, leaf_spine.h) always create links in duplex pairs; the partner
// of link `l` is `reverse_of(l)`.  Failure injection marks both directions of
// a duplex pair as failed; all queries that matter for routing and tree
// construction skip failed links.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace peel {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

/// Node roles. A two-tier leaf–spine uses Tor (leaf) and Core (spine).
enum class NodeKind : std::uint8_t { Gpu, Host, Tor, Agg, Core };

[[nodiscard]] const char* to_string(NodeKind k) noexcept;

/// True for Tor/Agg/Core.
[[nodiscard]] constexpr bool is_switch(NodeKind k) noexcept {
  return k == NodeKind::Tor || k == NodeKind::Agg || k == NodeKind::Core;
}

struct Node {
  NodeKind kind = NodeKind::Gpu;
  /// Pod index for pod-scoped nodes (fat-tree ToR/Agg, and the hosts/GPUs
  /// below them); -1 for core switches and leaf–spine spines.
  std::int32_t pod = -1;
  /// Index within the node's tier (ToR index within its pod, core index
  /// globally, GPU index within its host, ...).
  std::int32_t tier_index = 0;
};

/// Link medium; determines which failure/bandwidth policies apply.
enum class LinkKind : std::uint8_t {
  Fabric,  ///< switch-to-switch datacenter link
  HostNic, ///< host NIC to ToR
  NvLink,  ///< intra-server GPU interconnect
};

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  GbpsRate rate{};
  SimTime propagation = 0;
  LinkKind kind = LinkKind::Fabric;
  bool failed = false;
};

class Topology {
 public:
  // --- construction ------------------------------------------------------
  NodeId add_node(Node n);

  /// Adds the pair (a→b, b→a) and returns the id of a→b; the reverse link is
  /// always the returned id + 1.
  LinkId add_duplex_link(NodeId a, NodeId b, GbpsRate rate,
                         SimTime propagation = 100, LinkKind kind = LinkKind::Fabric);

  // --- structure queries --------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const {
    assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    assert(id >= 0 && static_cast<std::size_t>(id) < links_.size());
    return links_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] NodeKind kind(NodeId id) const { return node(id).kind; }

  /// The duplex partner of `l`.
  [[nodiscard]] LinkId reverse_of(LinkId l) const noexcept {
    return (l % 2 == 0) ? l + 1 : l - 1;
  }

  /// Outgoing links of `n`, including failed ones (check link(l).failed).
  [[nodiscard]] std::span<const LinkId> out_links(NodeId n) const {
    return out_links_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::span<const LinkId> in_links(NodeId n) const {
    return in_links_[static_cast<std::size_t>(n)];
  }

  /// Live (non-failed) out-neighbors of `n`.
  [[nodiscard]] std::vector<NodeId> live_neighbors(NodeId n) const;

  /// Live link from a to b, or kInvalidLink.
  [[nodiscard]] LinkId find_link(NodeId a, NodeId b) const;

  /// All node ids of the given kind, in creation order.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind k) const;

  /// Human-readable name, e.g. "tor[p2.1]", "core[3]", "gpu[h17.5]".
  [[nodiscard]] std::string name(NodeId id) const;

  // --- hierarchy helpers (populated by builders) --------------------------
  /// Host that a GPU is attached to (kInvalidNode for non-GPU nodes).
  [[nodiscard]] NodeId host_of(NodeId gpu) const { return parent_[static_cast<std::size_t>(gpu)]; }
  /// ToR that a host attaches to (kInvalidNode otherwise).
  [[nodiscard]] NodeId tor_of(NodeId host) const { return parent_[static_cast<std::size_t>(host)]; }
  /// Resolves a GPU or host to its ToR.
  [[nodiscard]] NodeId tor_of_endpoint(NodeId endpoint) const;
  void set_parent(NodeId child, NodeId parent) {
    parent_[static_cast<std::size_t>(child)] = parent;
  }

  // --- failures -----------------------------------------------------------
  /// Fails both directions of the duplex pair containing `l`.
  void fail_duplex(LinkId l);
  /// Restores both directions.
  void restore_duplex(LinkId l);
  /// Failed directed links (O(1): kept by fail_duplex / restore_duplex).
  [[nodiscard]] std::size_t failed_link_count() const noexcept {
    return failed_links_;
  }

 private:
  void set_failed(LinkId l, bool failed);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<std::vector<LinkId>> in_links_;
  std::vector<NodeId> parent_;
  std::size_t failed_links_ = 0;
};

}  // namespace peel
