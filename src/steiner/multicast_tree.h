// Multicast (Steiner) tree representation shared by all tree-construction
// algorithms and the simulator's replicating data plane.
//
// Links are stored oriented in the direction data flows (away from the
// source).  Every non-source tree node has exactly one in-link; switches
// replicate a packet onto all of their out-links.  Storage is flat and
// tree-sized: the nodes and the out-link groups are kept as sorted arrays,
// so a lookup is a binary search and a tree costs a few allocations, not
// one per node.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/topology/topology.h"

namespace peel {

class MulticastTree {
 public:
  MulticastTree() = default;
  MulticastTree(NodeId source, std::vector<NodeId> destinations)
      : source_(source), destinations_(std::move(destinations)) {}

  /// Pre-sizes the storage for a tree of about `links` links.
  void reserve(std::size_t links);

  /// Adds a directed tree link (data direction). The link's src must already
  /// be in the tree (or be the source); its dst must not have an in-link yet.
  /// Throws std::logic_error on violations, so construction bugs fail fast.
  void add_link(const Topology& topo, LinkId l);

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] const std::vector<NodeId>& destinations() const noexcept {
    return destinations_;
  }
  [[nodiscard]] const std::vector<LinkId>& links() const noexcept { return links_; }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }

  [[nodiscard]] bool contains(NodeId n) const {
    return n == source_ || std::binary_search(nodes_.begin(), nodes_.end(), n);
  }

  /// Out-links (children) of a tree node; empty for leaves.
  [[nodiscard]] std::span<const LinkId> out_links_of(NodeId n) const;

  /// In-link of a non-source tree node, kInvalidLink for the source or
  /// non-members.
  [[nodiscard]] LinkId in_link_of(NodeId n) const;

  /// Number of distinct switch nodes in the tree (the |T| the paper's
  /// Lemma 2.3 bounds).
  [[nodiscard]] std::size_t switch_count(const Topology& topo) const;

  /// All nodes in the tree: the source, then the others in ascending id.
  [[nodiscard]] std::vector<NodeId> nodes() const;

  struct Validation {
    bool ok = true;
    std::string error;
  };

  /// Checks the tree is loop-free, every link is live, every non-source node
  /// has exactly one in-link whose src is in the tree, and every destination
  /// is reachable from the source along tree links.
  [[nodiscard]] Validation validate(const Topology& topo) const;

 private:
  NodeId source_ = kInvalidNode;
  std::vector<NodeId> destinations_;
  std::vector<LinkId> links_;  ///< attach order: parents before children
  /// Non-source tree nodes ascending, with their in-links alongside.
  std::vector<NodeId> nodes_;
  std::vector<LinkId> in_links_;
  /// Out-links grouped by parent (parents ascending, siblings in attach
  /// order), with each link's parent alongside.
  std::vector<NodeId> parents_;
  std::vector<LinkId> children_;
};

}  // namespace peel
