#include "src/routing/router.h"

namespace peel {

std::uint64_t ecmp_hash(std::uint64_t a, std::uint64_t b, std::uint64_t salt) noexcept {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + (salt << 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

/// Fills `dist` with hop distances from `origin` (or to it, following links
/// backwards), using `queue` as the FIFO.
void bfs_field(const Topology& topo, NodeId origin, bool follow_out_links,
               std::vector<std::int32_t>& dist, std::vector<NodeId>& queue) {
  dist.assign(topo.node_count(), Router::kUnreachable);
  queue.clear();
  queue.push_back(origin);
  dist[static_cast<std::size_t>(origin)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId cur = queue[head];
    const auto links = follow_out_links ? topo.out_links(cur) : topo.in_links(cur);
    for (LinkId l : links) {
      const Link& lk = topo.link(l);
      if (lk.failed) continue;
      const NodeId next = follow_out_links ? lk.dst : lk.src;
      auto& d = dist[static_cast<std::size_t>(next)];
      if (d == Router::kUnreachable) {
        d = dist[static_cast<std::size_t>(cur)] + 1;
        queue.push_back(next);
      }
    }
  }
}

}  // namespace

const std::vector<std::int32_t>& Router::distances_to(NodeId dst) {
  if (field_of_.empty()) field_of_.assign(topo_->node_count(), kNoField);
  auto& field = field_of_[static_cast<std::size_t>(dst)];
  if (field == kNoField) {
    field = static_cast<std::int32_t>(fields_.size());
    // Distances *to* dst follow links backwards.
    bfs_field(*topo_, dst, /*follow_out_links=*/false, fields_.emplace_back(),
              bfs_queue_);
  }
  return fields_[static_cast<std::size_t>(field)];
}

std::vector<std::int32_t> Router::distances_from(NodeId src) const {
  std::vector<std::int32_t> dist;
  std::vector<NodeId> queue;
  bfs_field(*topo_, src, /*follow_out_links=*/true, dist, queue);
  return dist;
}

Route Router::path(NodeId src, NodeId dst, std::uint64_t flow_hash) {
  Route route;
  if (src == dst) {
    route.nodes.push_back(src);
    return route;
  }
  const auto& dist = distances_to(dst);
  if (dist[static_cast<std::size_t>(src)] == kUnreachable) return route;

  const auto hops = static_cast<std::size_t>(dist[static_cast<std::size_t>(src)]);
  route.nodes.reserve(hops + 1);
  route.links.reserve(hops);
  route.nodes.push_back(src);
  NodeId cur = src;
  std::uint64_t hop = 0;
  while (cur != dst) {
    // Collect all live links that make progress toward dst.
    candidates_.clear();
    const std::int32_t here = dist[static_cast<std::size_t>(cur)];
    for (LinkId l : topo_->out_links(cur)) {
      const Link& lk = topo_->link(l);
      if (lk.failed) continue;
      if (dist[static_cast<std::size_t>(lk.dst)] == here - 1) candidates_.push_back(l);
    }
    const auto pick = static_cast<std::size_t>(
        ecmp_hash(flow_hash, hop) % candidates_.size());
    const LinkId chosen = candidates_[pick];
    route.links.push_back(chosen);
    cur = topo_->link(chosen).dst;
    route.nodes.push_back(cur);
    ++hop;
  }
  return route;
}

}  // namespace peel
