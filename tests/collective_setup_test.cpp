// Collective setup suite: PEEL plan -> trees -> streams -> deliveries.
//
//   1. Oracle — the map/set-based prefix planner and the find_link-based
//      tree expansion that preceded the flat, tree-sized builders live here
//      unchanged (apart from reading the flat host-member index). On seeded
//      random groups over fat-trees (k = 4/8/16, host and multi-GPU
//      endpoints, source-local members), bounded covers and leaf-spines the
//      library must emit the identical PeelPlan, the identical links()
//      sequence per tree and the identical receivers per stream.
//   2. Pinned results — an open-loop PEEL workload with churn at flow
//      fidelity (multi-GPU hosts, striped trees, a bounded cover) reproduces,
//      collective by collective, the CCTs recorded before the rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/collectives/trees.h"
#include "src/common/rng.h"
#include "src/harness/workload.h"
#include "src/prefix/plan.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

// --- 1. the oracle ------------------------------------------------------------

namespace oracle {

struct Layout {
  const Topology* topo = nullptr;
  int pod_count = 1;
  int tors_per_pod = 0;
  int hosts_per_rack = 0;
  std::function<NodeId(int, int)> tor_at;
};

struct PodSlice {
  int pod = 0;
  std::vector<NodeId> member_tors;
  std::vector<NodeId> redundant_tors;
};

struct RuleKey {
  Prefix tor_prefix;
  Prefix host_prefix;
  friend auto operator<=>(const RuleKey& a, const RuleKey& b) {
    return std::tie(a.tor_prefix.value, a.tor_prefix.length, a.host_prefix.value,
                    a.host_prefix.length) <=>
           std::tie(b.tor_prefix.value, b.tor_prefix.length, b.host_prefix.value,
                    b.host_prefix.length);
  }
};

PeelPlan build_generic(const Layout& layout, NodeId source,
                       std::span<const NodeId> destinations,
                       const PeelCoverOptions& cover) {
  const Topology& topo = *layout.topo;
  PeelPlan plan;
  plan.source = source;
  plan.destinations.assign(destinations.begin(), destinations.end());
  plan.pod_id_bits = id_bits(layout.pod_count);
  plan.tor_id_bits = id_bits(layout.tors_per_pod);
  plan.host_id_bits = id_bits(layout.hosts_per_rack);

  const NodeId src_host =
      topo.kind(source) == NodeKind::Gpu ? topo.host_of(source) : source;
  const NodeId src_tor = topo.tor_of(src_host);
  const int src_pod = static_cast<int>(topo.node(src_tor).pod);
  const int src_tor_idx = static_cast<int>(topo.node(src_tor).tier_index);

  std::map<int, std::map<int, std::pair<NodeId, std::set<int>>>> pods;
  std::map<NodeId, std::vector<NodeId>> host_members;

  for (NodeId d : destinations) {
    if (d == source) throw std::invalid_argument("source listed among destinations");
    const NodeId host = topo.kind(d) == NodeKind::Gpu ? topo.host_of(d) : d;
    host_members[host].push_back(d);
    if (host == src_host) {
      plan.source_local.push_back(d);
      continue;
    }
    const NodeId tor = topo.tor_of(host);
    const int pod = static_cast<int>(topo.node(tor).pod);
    const int tor_idx = static_cast<int>(topo.node(tor).tier_index);
    auto& rack = pods[pod][tor_idx];
    rack.first = tor;
    rack.second.insert(static_cast<int>(topo.node(host).tier_index) %
                       layout.hosts_per_rack);
  }
  for (const auto& [host, members] : host_members) {
    plan.host_members.hosts.push_back(host);
    plan.host_members.endpoints.insert(plan.host_members.endpoints.end(),
                                       members.begin(), members.end());
    plan.host_members.offsets.push_back(
        static_cast<std::uint32_t>(plan.host_members.endpoints.size()));
  }

  std::map<RuleKey, std::vector<PodSlice>> classes;
  for (const auto& [pod, racks] : pods) {
    std::vector<int> member_tor_ids;
    for (const auto& [tor_idx, rack] : racks) member_tor_ids.push_back(tor_idx);
    const MemberSet tor_set = make_member_set(member_tor_ids, plan.tor_id_bits);

    std::vector<Prefix> tor_prefixes;
    if (cover.max_tor_prefixes_per_pod > 0) {
      tor_prefixes = bounded_cover(tor_set, plan.tor_id_bits,
                                   cover.max_tor_prefixes_per_pod).prefixes;
    } else {
      MemberSet dont_care(tor_set.size(), 0);
      if (pod == src_pod && !tor_set[static_cast<std::size_t>(src_tor_idx)]) {
        dont_care[static_cast<std::size_t>(src_tor_idx)] = 1;
      }
      tor_prefixes = exact_cover(tor_set, dont_care, plan.tor_id_bits);
    }

    for (const Prefix& tp : tor_prefixes) {
      PodSlice slice;
      slice.pod = pod;
      std::set<int> host_union;
      const std::uint32_t start = tp.block_start(plan.tor_id_bits);
      const std::uint32_t size = tp.block_size(plan.tor_id_bits);
      for (std::uint32_t id = start; id < start + size; ++id) {
        if (static_cast<int>(id) >= layout.tors_per_pod) continue;
        const auto it = racks.find(static_cast<int>(id));
        if (it != racks.end()) {
          slice.member_tors.push_back(it->second.first);
          host_union.insert(it->second.second.begin(), it->second.second.end());
        } else {
          const NodeId tor = layout.tor_at(pod, static_cast<int>(id));
          if (tor != kInvalidNode) slice.redundant_tors.push_back(tor);
        }
      }
      const MemberSet host_set = make_member_set(
          std::vector<int>(host_union.begin(), host_union.end()), plan.host_id_bits);
      std::vector<Prefix> host_prefixes;
      if (cover.max_tor_prefixes_per_pod > 0) {
        host_prefixes = bounded_cover(host_set, plan.host_id_bits,
                                      cover.max_tor_prefixes_per_pod).prefixes;
      } else {
        host_prefixes = exact_cover(host_set, plan.host_id_bits);
      }
      for (const Prefix& hp : host_prefixes) {
        classes[RuleKey{tp, hp}].push_back(slice);
      }
    }
  }

  for (const auto& [key, slices] : classes) {
    std::vector<int> pod_ids;
    std::map<int, const PodSlice*> slice_by_pod;
    for (const PodSlice& s : slices) {
      pod_ids.push_back(s.pod);
      slice_by_pod[s.pod] = &s;
    }
    const MemberSet pod_set = make_member_set(pod_ids, plan.pod_id_bits);
    std::vector<Prefix> pod_blocks;
    if (cover.max_pod_blocks > 0) {
      pod_blocks =
          bounded_cover(pod_set, plan.pod_id_bits, cover.max_pod_blocks).prefixes;
    } else {
      pod_blocks = exact_cover(pod_set, plan.pod_id_bits);
    }
    for (const Prefix& pp : pod_blocks) {
      PeelPacketRule rule;
      rule.pod_prefix = pp;
      rule.tor_prefix = key.tor_prefix;
      rule.host_prefix = key.host_prefix;
      const std::uint32_t start = pp.block_start(plan.pod_id_bits);
      const std::uint32_t size = pp.block_size(plan.pod_id_bits);
      for (std::uint32_t pod = start; pod < start + size; ++pod) {
        if (static_cast<int>(pod) >= layout.pod_count) continue;
        const auto it = slice_by_pod.find(static_cast<int>(pod));
        if (it == slice_by_pod.end()) {
          const std::uint32_t tstart = rule.tor_prefix.block_start(plan.tor_id_bits);
          const std::uint32_t tsize = rule.tor_prefix.block_size(plan.tor_id_bits);
          for (std::uint32_t tid = tstart; tid < tstart + tsize; ++tid) {
            const NodeId tor = layout.tor_at(static_cast<int>(pod),
                                             static_cast<int>(tid));
            if (tor != kInvalidNode) rule.redundant_tors.push_back(tor);
          }
          continue;
        }
        rule.pods.push_back(static_cast<int>(pod));
        const PodSlice& s = *it->second;
        rule.member_tors.insert(rule.member_tors.end(), s.member_tors.begin(),
                                s.member_tors.end());
        rule.redundant_tors.insert(rule.redundant_tors.end(),
                                   s.redundant_tors.begin(),
                                   s.redundant_tors.end());
      }
      const std::uint32_t hstart = rule.host_prefix.block_start(plan.host_id_bits);
      const std::uint32_t hsize = rule.host_prefix.block_size(plan.host_id_bits);
      for (std::uint32_t h = hstart; h < hstart + hsize; ++h) {
        if (static_cast<int>(h) < layout.hosts_per_rack) {
          rule.covered_host_idx.push_back(static_cast<int>(h));
        }
      }
      plan.packets.push_back(std::move(rule));
    }
  }
  return plan;
}

PeelPlan build_peel_plan(const Fabric& fabric, NodeId source,
                         std::span<const NodeId> destinations,
                         const PeelCoverOptions& cover) {
  Layout layout;
  layout.topo = &fabric.topo();
  if (fabric.fat_tree) {
    const FatTree& ft = *fabric.fat_tree;
    layout.pod_count = ft.pods();
    layout.tors_per_pod = ft.tors_per_pod();
    layout.hosts_per_rack = ft.hosts_per_tor();
    layout.tor_at = [&ft](int pod, int idx) { return ft.tor_at(pod, idx); };
  } else {
    const LeafSpine& ls = *fabric.leaf_spine;
    layout.tors_per_pod = static_cast<int>(ls.leaves.size());
    layout.hosts_per_rack = ls.config.hosts_per_leaf;
    layout.tor_at = [&ls](int, int idx) {
      return idx < static_cast<int>(ls.leaves.size())
                 ? ls.leaves[static_cast<std::size_t>(idx)]
                 : kInvalidNode;
    };
  }
  return build_generic(layout, source, destinations, cover);
}

NodeId resolve_host(const Topology& topo, NodeId endpoint) {
  return topo.kind(endpoint) == NodeKind::Gpu ? topo.host_of(endpoint) : endpoint;
}

struct PeelExpander {
  const Fabric& fabric;
  const PeelPlan& plan;
  const Topology& topo;
  NodeId src_host;

  [[nodiscard]] NodeId host_at(NodeId tor, int idx) const {
    const int per_rack = fabric.hosts_per_rack();
    const auto& hosts = fabric.hosts();
    int rack_position = 0;
    if (fabric.fat_tree) {
      const auto& n = topo.node(tor);
      rack_position = static_cast<int>(n.pod) * fabric.fat_tree->tors_per_pod() +
                      static_cast<int>(n.tier_index);
    } else {
      rack_position = static_cast<int>(topo.node(tor).tier_index);
    }
    const std::size_t i = static_cast<std::size_t>(rack_position * per_rack + idx);
    return i < hosts.size() ? hosts[i] : kInvalidNode;
  }

  void attach_rack(MulticastTree& tree, const PeelPacketRule& rule, NodeId tor,
                   bool rack_has_members, std::vector<NodeId>& receivers) const {
    for (int idx : rule.covered_host_idx) {
      const NodeId host = host_at(tor, idx);
      if (host == kInvalidNode || host == src_host) continue;
      tree.add_link(topo, topo.find_link(tor, host));
      if (!rack_has_members) continue;
      const std::span<const NodeId> members = plan.host_members.of(host);
      if (members.empty()) continue;
      for (NodeId e : members) {
        if (e != host) tree.add_link(topo, topo.find_link(host, e));
      }
      receivers.insert(receivers.end(), members.begin(), members.end());
    }
  }
};

std::vector<PeelStream> peel_static_trees(const Fabric& fabric, const PeelPlan& plan,
                                          std::uint64_t selector) {
  const Topology& topo = fabric.topo();
  const NodeId source = plan.source;
  const NodeId src_host = resolve_host(topo, source);
  const NodeId src_tor = topo.tor_of(src_host);
  const PeelExpander ex{fabric, plan, topo, src_host};

  std::vector<PeelStream> streams;
  for (std::size_t r = 0; r < plan.packets.size(); ++r) {
    const PeelPacketRule& rule = plan.packets[r];
    MulticastTree tree(source, {});
    std::vector<NodeId> receivers;
    if (source != src_host) tree.add_link(topo, topo.find_link(source, src_host));
    tree.add_link(topo, topo.find_link(src_host, src_tor));

    const bool beyond_src_rack =
        std::any_of(rule.member_tors.begin(), rule.member_tors.end(),
                    [&](NodeId t) { return t != src_tor; }) ||
        std::any_of(rule.redundant_tors.begin(), rule.redundant_tors.end(),
                    [&](NodeId t) { return t != src_tor; });
    if (!beyond_src_rack) {
      ex.attach_rack(tree, rule, src_tor, true, receivers);
      streams.push_back(PeelStream{std::move(tree), std::move(receivers)});
      continue;
    }
    auto attach_tor = [&](NodeId repl, NodeId tor, bool has_members) {
      if (tor != src_tor) {
        tree.add_link(topo, topo.find_link(repl, tor));
        ex.attach_rack(tree, rule, tor, has_members, receivers);
      } else {
        ex.attach_rack(tree, rule, src_tor, has_members, receivers);
      }
    };
    std::map<int, std::vector<std::pair<NodeId, bool>>> tors_by_pod;
    for (NodeId tor : rule.member_tors) {
      tors_by_pod[static_cast<int>(topo.node(tor).pod)].emplace_back(tor, true);
    }
    for (NodeId tor : rule.redundant_tors) {
      tors_by_pod[static_cast<int>(topo.node(tor).pod)].emplace_back(tor, false);
    }
    const std::uint64_t salt = selector * 1315423911ULL + r;
    if (fabric.fat_tree) {
      const FatTree& ft = *fabric.fat_tree;
      const int half = ft.config.k / 2;
      const int a = static_cast<int>(salt % static_cast<std::uint64_t>(half));
      const int j = static_cast<int>((salt / static_cast<std::uint64_t>(half)) %
                                     static_cast<std::uint64_t>(half));
      const int src_pod = static_cast<int>(topo.node(src_tor).pod);
      const NodeId src_agg = ft.agg_at(src_pod, a);
      tree.add_link(topo, topo.find_link(src_tor, src_agg));
      if (auto it = tors_by_pod.find(src_pod); it != tors_by_pod.end()) {
        for (const auto& [tor, has_members] : it->second) {
          attach_tor(src_agg, tor, has_members);
        }
      }
      const bool remote_pods =
          std::any_of(tors_by_pod.begin(), tors_by_pod.end(),
                      [&](const auto& kv) { return kv.first != src_pod; });
      if (remote_pods) {
        const NodeId core = ft.core_at(a, j);
        tree.add_link(topo, topo.find_link(src_agg, core));
        for (const auto& [pod, tors] : tors_by_pod) {
          if (pod == src_pod) continue;
          const NodeId agg = ft.agg_at(pod, a);
          tree.add_link(topo, topo.find_link(core, agg));
          for (const auto& [tor, has_members] : tors) {
            attach_tor(agg, tor, has_members);
          }
        }
      }
    } else {
      const LeafSpine& ls = *fabric.leaf_spine;
      const NodeId spine = ls.spines[static_cast<std::size_t>(salt % ls.spines.size())];
      tree.add_link(topo, topo.find_link(src_tor, spine));
      for (const auto& [pod, tors] : tors_by_pod) {
        for (const auto& [tor, has_members] : tors) {
          attach_tor(spine, tor, has_members);
        }
      }
    }
    streams.push_back(PeelStream{std::move(tree), std::move(receivers)});
  }

  if (!plan.source_local.empty()) {
    if (!streams.empty() && source != src_host) {
      for (NodeId e : plan.source_local) {
        streams.front().tree.add_link(topo, topo.find_link(src_host, e));
        streams.front().receivers.push_back(e);
      }
    } else {
      MulticastTree local(source, plan.source_local);
      if (source != src_host) local.add_link(topo, topo.find_link(source, src_host));
      for (NodeId e : plan.source_local) {
        local.add_link(topo, topo.find_link(src_host, e));
      }
      streams.push_back(PeelStream{std::move(local), plan.source_local});
    }
  }
  return streams;
}

}  // namespace oracle

PeelPlan library_plan(const Fabric& fabric, NodeId source,
                      std::span<const NodeId> dests, const PeelCoverOptions& cover) {
  return fabric.fat_tree ? build_peel_plan(*fabric.fat_tree, source, dests, cover)
                         : build_peel_plan(*fabric.leaf_spine, source, dests, cover);
}

void expect_same_plan(const PeelPlan& got, const PeelPlan& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.destinations, want.destinations);
  EXPECT_EQ(got.source_local, want.source_local);
  EXPECT_EQ(got.host_members.hosts, want.host_members.hosts);
  EXPECT_EQ(got.host_members.offsets, want.host_members.offsets);
  EXPECT_EQ(got.host_members.endpoints, want.host_members.endpoints);
  EXPECT_EQ(got.pod_id_bits, want.pod_id_bits);
  EXPECT_EQ(got.tor_id_bits, want.tor_id_bits);
  EXPECT_EQ(got.host_id_bits, want.host_id_bits);
  ASSERT_EQ(got.packets.size(), want.packets.size());
  for (std::size_t i = 0; i < got.packets.size(); ++i) {
    const PeelPacketRule& g = got.packets[i];
    const PeelPacketRule& w = want.packets[i];
    EXPECT_EQ(g.pods, w.pods) << "packet " << i;
    EXPECT_EQ(g.pod_prefix, w.pod_prefix) << "packet " << i;
    EXPECT_EQ(g.tor_prefix, w.tor_prefix) << "packet " << i;
    EXPECT_EQ(g.host_prefix, w.host_prefix) << "packet " << i;
    EXPECT_EQ(g.member_tors, w.member_tors) << "packet " << i;
    EXPECT_EQ(g.redundant_tors, w.redundant_tors) << "packet " << i;
    EXPECT_EQ(g.covered_host_idx, w.covered_host_idx) << "packet " << i;
  }
}

/// Expands `plan` with both expanders; they must agree link for link, or
/// both reject the plan (a failed link on the expansion) with logic_error.
/// Returns whether the plan was rejected.
bool expect_same_trees(const Fabric& fabric, const PeelPlan& plan,
                       std::uint64_t selector) {
  std::vector<PeelStream> want;
  bool want_threw = false;
  try {
    want = oracle::peel_static_trees(fabric, plan, selector);
  } catch (const std::logic_error&) {
    want_threw = true;
  }
  if (want_threw) {
    EXPECT_THROW((void)peel_static_trees(fabric, plan, selector), std::logic_error);
    return true;
  }
  const std::vector<PeelStream> got = peel_static_trees(fabric, plan, selector);
  EXPECT_EQ(got.size(), want.size());
  if (got.size() != want.size()) return false;
  const Topology& topo = fabric.topo();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tree.source(), want[i].tree.source()) << "stream " << i;
    EXPECT_EQ(got[i].tree.destinations(), want[i].tree.destinations());
    EXPECT_EQ(got[i].tree.links(), want[i].tree.links()) << "stream " << i;
    EXPECT_EQ(got[i].receivers, want[i].receivers) << "stream " << i;
    // The stream spec the runner opens: same out-links, in the same order,
    // under every node.
    const StreamSpec gs = spec_from_tree(topo, got[i].tree, got[i].receivers);
    const StreamSpec ws = spec_from_tree(topo, want[i].tree, want[i].receivers);
    EXPECT_EQ(gs.forward, ws.forward) << "stream " << i;
    EXPECT_EQ(gs.receivers, ws.receivers) << "stream " << i;
    // The flat storage answers like the link list it indexes: every node's
    // in-link, and its out-links in attach order.
    for (NodeId n : got[i].tree.nodes()) {
      std::vector<LinkId> outs;
      for (LinkId l : got[i].tree.links()) {
        if (topo.link(l).src == n) outs.push_back(l);
        if (topo.link(l).dst == n) {
          EXPECT_EQ(got[i].tree.in_link_of(n), l);
        }
      }
      const std::span<const LinkId> got_outs = got[i].tree.out_links_of(n);
      EXPECT_EQ(std::vector<LinkId>(got_outs.begin(), got_outs.end()), outs);
    }
  }
  return false;
}

/// Draws a group of `size` endpoints (source first). `local_bias` pulls
/// members from the source's host and rack so source-local members and
/// partially filled racks are common.
std::vector<NodeId> draw_group(Rng& rng, const std::vector<NodeId>& endpoints,
                               int size, bool local_bias) {
  std::vector<NodeId> group;
  std::set<NodeId> seen;
  const std::size_t first = rng.next_below(endpoints.size());
  group.push_back(endpoints[first]);
  seen.insert(endpoints[first]);
  while (static_cast<int>(group.size()) < size) {
    std::size_t i = rng.next_below(endpoints.size());
    if (local_bias && rng.next_double() < 0.5) {
      const std::size_t span = std::min<std::size_t>(16, endpoints.size());
      i = (first / span) * span + rng.next_below(span);
      i = std::min(i, endpoints.size() - 1);
    }
    if (seen.insert(endpoints[i]).second) group.push_back(endpoints[i]);
  }
  return group;
}

void check_random_groups(const Fabric& fabric, const PeelCoverOptions& cover,
                         std::uint64_t seed, int groups) {
  Rng rng(seed);
  const std::vector<NodeId>& endpoints = fabric.endpoints();
  for (int g = 0; g < groups; ++g) {
    const int max_size =
        std::min<int>(static_cast<int>(endpoints.size()), 2 + g % 40);
    const int size = 2 + static_cast<int>(rng.next_below(
                             static_cast<std::size_t>(max_size - 1)));
    const std::vector<NodeId> group =
        draw_group(rng, endpoints, size, g % 2 == 0);
    const NodeId source = group.front();
    const std::vector<NodeId> dests(group.begin() + 1, group.end());
    SCOPED_TRACE("seed " + std::to_string(seed) + " group " + std::to_string(g));
    const PeelPlan want = oracle::build_peel_plan(fabric, source, dests, cover);
    const PeelPlan got = library_plan(fabric, source, dests, cover);
    expect_same_plan(got, want);
    for (std::uint64_t selector : {std::uint64_t{0}, std::uint64_t{7},
                                   rng.next_below(1000003)}) {
      EXPECT_FALSE(expect_same_trees(fabric, want, selector));
    }
  }
}

const PeelCoverOptions kCovers[] = {{0, 0}, {1, 1}, {2, 0}, {0, 2}, {3, 2}};

TEST(SetupOracle, FatTreePlansAndTreesMatch) {
  const FatTreeConfig configs[] = {{4, -1, 0},  {4, 2, 2},  {8, -1, 0},
                                   {8, 4, 4},   {8, 3, 1},  {16, -1, 1},
                                   {16, 2, 8}};
  std::uint64_t seed = 1;
  for (const FatTreeConfig& config : configs) {
    const FatTree ft = build_fat_tree(config);
    const Fabric fabric = Fabric::of(ft);
    for (const PeelCoverOptions& cover : kCovers) {
      SCOPED_TRACE("k=" + std::to_string(config.k) + " gpus/host=" +
                   std::to_string(config.gpus_per_host) + " cover=" +
                   std::to_string(cover.max_tor_prefixes_per_pod) + "/" +
                   std::to_string(cover.max_pod_blocks));
      check_random_groups(fabric, cover, seed++, 40);
    }
  }
}

TEST(SetupOracle, LeafSpinePlansAndTreesMatch) {
  const LeafSpineConfig configs[] = {{4, 8, 2, 2}, {8, 12, 2, 4}, {16, 48, 2, 0},
                                     {3, 5, 3, 1}};
  std::uint64_t seed = 101;
  for (const LeafSpineConfig& config : configs) {
    const LeafSpine ls = build_leaf_spine(config);
    const Fabric fabric = Fabric::of(ls);
    for (const PeelCoverOptions& cover : kCovers) {
      check_random_groups(fabric, cover, seed++, 40);
    }
  }
}

TEST(SetupOracle, WholeFabricGroupsMatch) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 2});
  const Fabric fabric = Fabric::of(ft);
  const std::vector<NodeId>& endpoints = ft.endpoints();
  for (const std::size_t src : {std::size_t{0}, std::size_t{1}, endpoints.size() / 2}) {
    std::vector<NodeId> dests;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (i != src) dests.push_back(endpoints[i]);
    }
    for (const PeelCoverOptions& cover : kCovers) {
      const PeelPlan want =
          oracle::build_peel_plan(fabric, endpoints[src], dests, cover);
      expect_same_plan(library_plan(fabric, endpoints[src], dests, cover), want);
      EXPECT_FALSE(expect_same_trees(fabric, want, 3));
    }
  }
}

TEST(SetupOracle, FailedLinksRejectTheSameExpansions) {
  FatTree ft = build_fat_tree(FatTreeConfig{8, 2, 2});
  Rng rng(77);
  const std::vector<NodeId> endpoints = ft.endpoints();
  int rejected = 0;
  int expanded = 0;
  for (int round = 0; round < 60; ++round) {
    const LinkId l = static_cast<LinkId>(rng.next_below(ft.topo.link_count()));
    ft.topo.fail_duplex(l);
    const Fabric fabric = Fabric::of(ft);
    const std::vector<NodeId> group = draw_group(rng, endpoints, 12, true);
    const std::vector<NodeId> dests(group.begin() + 1, group.end());
    const PeelPlan plan = oracle::build_peel_plan(fabric, group.front(), dests, {});
    for (std::uint64_t selector = 0; selector < 4; ++selector) {
      ++(expect_same_trees(fabric, plan, selector) ? rejected : expanded);
    }
    ft.topo.restore_duplex(l);
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(expanded, 0);
}

TEST(SetupOracle, SourceAmongDestinationsIsRejected) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  const std::vector<NodeId> dests{ft.gpus[3], ft.gpus[0], ft.gpus[9]};
  EXPECT_THROW((void)build_peel_plan(ft, ft.gpus[0], dests), std::invalid_argument);
}

// --- 2. pinned per-collective CCTs -------------------------------------------

std::vector<std::int64_t> cct_ns(const Samples& cct) {
  std::vector<std::int64_t> out;
  for (const double v : cct.values()) out.push_back(std::llround(v * 1e9));
  return out;
}

WorkloadConfig churn_cell() {
  WorkloadConfig wc;
  wc.scheme = Scheme::Peel;
  wc.collective = CollectiveKind::Broadcast;
  wc.fidelity = Fidelity::Flow;
  wc.arrivals.jobs = 30;
  wc.arrivals.group_sizes = {6, 12, 24};
  wc.arrivals.message_bytes = 256 * kKiB;
  wc.arrivals.iterations = 2;
  wc.arrivals.iteration_gap_seconds = 40e-6;
  wc.arrivals.hold_seconds = 100e-6;
  wc.arrivals.fragmented_share = 0.4;
  wc.arrivals.buddy_share = 0.3;
  wc.arrivals.rate_per_second = 150000.0;
  wc.churn.events_per_job = 1;
  wc.byte_audit = true;
  wc.watchdog = true;
  wc.seed = 5151;
  return wc;
}

// Multi-GPU hosts put members on the source's host (NVLink-only
// deliveries) and several members behind one host-prefix rule.
TEST(SetupPinned, ChurnWorkloadOnMultiGpuHosts) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 2, 2});
  const WorkloadResult r = run_workload(Fabric::of(ft), churn_cell());
  EXPECT_EQ(r.churn_events, 30u);
  const std::vector<std::int64_t> pinned = {
      82381, 92777, 82605, 104878, 317132, 176391, 71907, 171494, 381295,
      105567, 81129, 174401, 169658, 119623, 135950, 254669, 65742, 437124,
      144152, 194318, 400709, 110497, 108329, 405521, 398438, 434059, 105827,
      139702, 251738, 245018, 293398, 140192, 153385, 387926, 157033, 230089,
      415597, 234566, 241029, 137891, 381295, 142091, 133904, 292860, 124100,
      202266, 192123, 284668, 215163, 133454, 398438, 203368, 134142, 89540,
      116635, 118283, 201062, 299770, 298634, 102532};
  EXPECT_EQ(cct_ns(r.sim.cct_seconds), pinned);
}

// Two striped trees per collective over a bounded (over-covering) cover.
TEST(SetupPinned, StripedBoundedCoverWorkload) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 2, 2});
  WorkloadConfig wc = churn_cell();
  wc.runner.stripe_trees = 2;
  wc.runner.peel_cover = PeelCoverOptions{1, 2};
  wc.seed = 6262;
  const WorkloadResult r = run_workload(Fabric::of(ft), wc);
  const std::vector<std::int64_t> pinned = {
      79018, 79655, 258035, 92117, 258509, 85030, 330144, 392627, 393428,
      267903, 302474, 251137, 318707, 361304, 155988, 306307, 227023, 334124,
      273825, 308962, 363011, 335570, 397967, 399842, 338671, 265776, 290655,
      169866, 337987, 215945, 350449, 350210, 342395, 256017, 343964, 332984,
      212487, 271711, 181388, 332277, 319261, 322382, 318389, 312853, 320866,
      261394, 206545, 191638, 257439, 255494, 250076, 163510, 293657, 293338,
      288037, 261857, 195820, 223160, 222353, 268908};
  EXPECT_EQ(cct_ns(r.sim.cct_seconds), pinned);
}

}  // namespace
}  // namespace peel
