#include "src/steiner/multicast_tree.h"

#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace peel {

void MulticastTree::reserve(std::size_t links) {
  links_.reserve(links);
  nodes_.reserve(links);
  in_links_.reserve(links);
  parents_.reserve(links);
  children_.reserve(links);
}

void MulticastTree::add_link(const Topology& topo, LinkId l) {
  if (l == kInvalidLink) throw std::logic_error("MulticastTree: invalid link");
  const Link& lk = topo.link(l);
  if (lk.failed) {
    throw std::logic_error("MulticastTree: adding failed link " + topo.name(lk.src) +
                           " -> " + topo.name(lk.dst));
  }
  if (!contains(lk.src)) {
    throw std::logic_error("MulticastTree: parent not in tree: " + topo.name(lk.src));
  }
  const auto at = std::lower_bound(nodes_.begin(), nodes_.end(), lk.dst);
  if ((at != nodes_.end() && *at == lk.dst) || lk.dst == source_) {
    throw std::logic_error("MulticastTree: node already attached: " + topo.name(lk.dst));
  }
  in_links_.insert(in_links_.begin() + (at - nodes_.begin()), l);
  nodes_.insert(at, lk.dst);
  links_.push_back(l);
  const auto group_end = std::upper_bound(parents_.begin(), parents_.end(), lk.src);
  children_.insert(children_.begin() + (group_end - parents_.begin()), l);
  parents_.insert(group_end, lk.src);
}

std::span<const LinkId> MulticastTree::out_links_of(NodeId n) const {
  const auto [first, last] = std::equal_range(parents_.begin(), parents_.end(), n);
  return std::span(children_).subspan(
      static_cast<std::size_t>(first - parents_.begin()),
      static_cast<std::size_t>(last - first));
}

LinkId MulticastTree::in_link_of(NodeId n) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), n);
  return it == nodes_.end() || *it != n ? kInvalidLink
                                        : in_links_[static_cast<std::size_t>(
                                              it - nodes_.begin())];
}

std::size_t MulticastTree::switch_count(const Topology& topo) const {
  if (links_.empty()) return 0;  // the source alone touches no link
  const auto is_sw = [&topo](NodeId n) { return is_switch(topo.kind(n)); };
  return static_cast<std::size_t>(std::count_if(nodes_.begin(), nodes_.end(), is_sw)) +
         (is_sw(source_) ? 1 : 0);
}

std::vector<NodeId> MulticastTree::nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size() + 1);
  out.push_back(source_);
  out.insert(out.end(), nodes_.begin(), nodes_.end());
  return out;
}

MulticastTree::Validation MulticastTree::validate(const Topology& topo) const {
  Validation v;
  auto fail = [&](std::string msg) {
    v.ok = false;
    v.error = std::move(msg);
    return v;
  };
  if (source_ == kInvalidNode) return fail("no source");

  for (LinkId l : links_) {
    if (topo.link(l).failed) return fail("tree uses failed link");
  }
  // add_link already guarantees unique in-links; check
  // reachability (and thereby acyclicity: |links| == reachable - 1).
  std::unordered_set<NodeId> reached{source_};
  std::deque<NodeId> queue{source_};
  std::size_t traversed = 0;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    for (LinkId l : out_links_of(cur)) {
      ++traversed;
      const NodeId next = topo.link(l).dst;
      if (!reached.insert(next).second) return fail("cycle or duplicate attach");
      queue.push_back(next);
    }
  }
  if (traversed != links_.size()) return fail("unreachable links in tree");
  if (reached.size() != links_.size() + 1) return fail("tree is not connected");
  for (NodeId d : destinations_) {
    if (!reached.contains(d)) {
      return fail("destination not covered: " + topo.name(d));
    }
  }
  return v;
}

}  // namespace peel
