#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/topology/failures.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"
#include "src/topology/topology.h"

namespace peel {
namespace {

FatTreeConfig small_ft(int k, int hosts_per_tor = -1, int gpus = 0) {
  FatTreeConfig c;
  c.k = k;
  c.hosts_per_tor = hosts_per_tor;
  c.gpus_per_host = gpus;
  return c;
}

TEST(Topology, DuplexLinksPairUp) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Tor, 0, 0});
  const LinkId l = t.add_duplex_link(a, b, 100_gbps);
  EXPECT_EQ(t.reverse_of(l), l + 1);
  EXPECT_EQ(t.reverse_of(l + 1), l);
  EXPECT_EQ(t.link(l).src, a);
  EXPECT_EQ(t.link(l).dst, b);
  EXPECT_EQ(t.link(l + 1).src, b);
  EXPECT_EQ(t.link(l + 1).dst, a);
}

TEST(Topology, FindLinkRespectsFailures) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Core, -1, 0});
  const LinkId l = t.add_duplex_link(a, b, 100_gbps);
  EXPECT_EQ(t.find_link(a, b), l);
  t.fail_duplex(l);
  EXPECT_EQ(t.find_link(a, b), kInvalidLink);
  EXPECT_EQ(t.find_link(b, a), kInvalidLink);
  EXPECT_EQ(t.failed_link_count(), 2u);
  t.restore_duplex(l + 1);  // either direction restores the pair
  EXPECT_EQ(t.find_link(a, b), l);
  EXPECT_EQ(t.failed_link_count(), 0u);
}

TEST(Topology, FailedLinkCountSurvivesRepeatedFailAndRestore) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Core, -1, 0});
  const NodeId c = t.add_node(Node{NodeKind::Core, -1, 1});
  const LinkId ab = t.add_duplex_link(a, b, 100_gbps);
  const LinkId ac = t.add_duplex_link(a, c, 100_gbps);
  const auto scanned = [&t] {
    std::size_t n = 0;
    for (LinkId l = 0; l < static_cast<LinkId>(t.link_count()); ++l) {
      n += t.link(l).failed ? 1 : 0;
    }
    return n;
  };

  t.fail_duplex(ab);
  t.fail_duplex(ab);      // same pair again
  t.fail_duplex(ab + 1);  // and through its other direction
  EXPECT_EQ(t.failed_link_count(), 2u);
  t.fail_duplex(ac);
  EXPECT_EQ(t.failed_link_count(), 4u);
  EXPECT_EQ(t.failed_link_count(), scanned());

  t.restore_duplex(ab);
  t.restore_duplex(ab + 1);  // already restored
  EXPECT_EQ(t.failed_link_count(), 2u);
  t.restore_duplex(ac);
  t.restore_duplex(ac);
  t.restore_duplex(ab);  // restoring a healthy pair never goes below zero
  EXPECT_EQ(t.failed_link_count(), 0u);
  EXPECT_EQ(t.failed_link_count(), scanned());
}

TEST(Topology, LiveNeighborsSkipFailed) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Core, -1, 0});
  const NodeId c = t.add_node(Node{NodeKind::Core, -1, 1});
  const LinkId ab = t.add_duplex_link(a, b, 100_gbps);
  t.add_duplex_link(a, c, 100_gbps);
  t.fail_duplex(ab);
  const auto n = t.live_neighbors(a);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], c);
}

TEST(Topology, Names) {
  Topology t;
  const NodeId core = t.add_node(Node{NodeKind::Core, -1, 3});
  const NodeId tor = t.add_node(Node{NodeKind::Tor, 2, 1});
  EXPECT_EQ(t.name(core), "core[3]");
  EXPECT_EQ(t.name(tor), "tor[p2.1]");
}

TEST(FatTree, CanonicalCounts) {
  const FatTree ft = build_fat_tree(small_ft(4));
  EXPECT_EQ(ft.cores.size(), 4u);    // (k/2)^2
  EXPECT_EQ(ft.aggs.size(), 8u);     // k * k/2
  EXPECT_EQ(ft.tors.size(), 8u);
  EXPECT_EQ(ft.hosts.size(), 16u);   // k^3/4
  EXPECT_TRUE(ft.gpus.empty());
  EXPECT_EQ(&ft.endpoints(), &ft.hosts);
}

TEST(FatTree, PaperScaleEightAry) {
  // §4: 8-ary fat-tree, 4 servers per ToR, 8 GPUs per server = 1024 GPUs.
  const FatTree ft = build_fat_tree(small_ft(8, 4, 8));
  EXPECT_EQ(ft.tors.size(), 32u);
  EXPECT_EQ(ft.hosts.size(), 128u);
  EXPECT_EQ(ft.gpus.size(), 1024u);
  EXPECT_EQ(&ft.endpoints(), &ft.gpus);
}

TEST(FatTree, AggCoreWiring) {
  const FatTree ft = build_fat_tree(small_ft(4));
  const Topology& t = ft.topo;
  // Agg a of each pod connects to exactly the k/2 cores of group a.
  for (int p = 0; p < 4; ++p) {
    for (int a = 0; a < 2; ++a) {
      for (int j = 0; j < 2; ++j) {
        EXPECT_NE(t.find_link(ft.agg_at(p, a), ft.core_at(a, j)), kInvalidLink);
        // and to no core of the other group
        EXPECT_EQ(t.find_link(ft.agg_at(p, a), ft.core_at(1 - a, j)), kInvalidLink);
      }
    }
  }
}

TEST(FatTree, PodBipartiteWiring) {
  const FatTree ft = build_fat_tree(small_ft(4));
  for (int p = 0; p < 4; ++p) {
    for (int tor = 0; tor < 2; ++tor) {
      for (int a = 0; a < 2; ++a) {
        EXPECT_NE(ft.topo.find_link(ft.tor_at(p, tor), ft.agg_at(p, a)), kInvalidLink);
      }
    }
  }
  // No links across pods at ToR/agg level.
  EXPECT_EQ(ft.topo.find_link(ft.tor_at(0, 0), ft.agg_at(1, 0)), kInvalidLink);
}

TEST(FatTree, ParentChainsResolve) {
  const FatTree ft = build_fat_tree(small_ft(4, 2, 3));
  const Topology& t = ft.topo;
  for (NodeId gpu : ft.gpus) {
    const NodeId host = t.host_of(gpu);
    EXPECT_EQ(t.kind(host), NodeKind::Host);
    const NodeId tor = t.tor_of(host);
    EXPECT_EQ(t.kind(tor), NodeKind::Tor);
    EXPECT_EQ(t.tor_of_endpoint(gpu), tor);
    EXPECT_EQ(t.node(gpu).pod, t.node(tor).pod);
  }
}

TEST(FatTree, GpuLinksAreNvLink) {
  const FatTree ft = build_fat_tree(small_ft(4, 1, 2));
  const Topology& t = ft.topo;
  for (NodeId gpu : ft.gpus) {
    const LinkId l = t.find_link(gpu, t.host_of(gpu));
    ASSERT_NE(l, kInvalidLink);
    EXPECT_EQ(t.link(l).kind, LinkKind::NvLink);
    EXPECT_DOUBLE_EQ(t.link(l).rate.gbps, 7200.0);
  }
}

TEST(FatTree, RejectsOddDegree) {
  EXPECT_THROW(build_fat_tree(small_ft(5)), std::invalid_argument);
  EXPECT_THROW(build_fat_tree(small_ft(0)), std::invalid_argument);
}

TEST(LeafSpine, PaperScale) {
  // §4 Figure 7: 16 spines, 48 leaves, 2 servers per leaf, 8 GPUs each.
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{});
  EXPECT_EQ(ls.spines.size(), 16u);
  EXPECT_EQ(ls.leaves.size(), 48u);
  EXPECT_EQ(ls.hosts.size(), 96u);
  EXPECT_EQ(ls.gpus.size(), 768u);
  // Full bipartite leaf-spine core.
  for (NodeId leaf : ls.leaves) {
    int spines_connected = 0;
    for (LinkId l : ls.topo.out_links(leaf)) {
      if (ls.topo.kind(ls.topo.link(l).dst) == NodeKind::Core) ++spines_connected;
    }
    EXPECT_EQ(spines_connected, 16);
  }
}

TEST(Failures, SpineLeafCandidates) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 6, 1, 0});
  const auto candidates = duplex_spine_leaf_links(ls.topo);
  EXPECT_EQ(candidates.size(), 24u);  // 4 spines x 6 leaves
}

TEST(Failures, FractionFailsExpectedCount) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{16, 48, 1, 0});
  const auto candidates = duplex_spine_leaf_links(ls.topo);
  Rng rng(5);
  const std::size_t failed =
      fail_random_fraction(ls.topo, candidates, 0.10, rng);
  EXPECT_EQ(failed, 77u);  // round(0.1 * 768)
  EXPECT_EQ(ls.topo.failed_link_count(), 2 * failed);
}

TEST(Failures, AtLeastOneWhenFractionTiny) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 1, 0});
  const auto candidates = duplex_spine_leaf_links(ls.topo);
  Rng rng(6);
  EXPECT_EQ(fail_random_fraction(ls.topo, candidates, 0.01, rng), 1u);
}

TEST(Failures, Reachability) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 1, 0});
  const NodeId h0 = ls.hosts[0];
  const NodeId h1 = ls.hosts[1];
  EXPECT_TRUE(all_reachable(ls.topo, h0, std::vector<NodeId>{h1}));
  // Sever leaf 1 from both spines: h1 unreachable.
  for (NodeId spine : ls.spines) {
    ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[1], spine));
  }
  EXPECT_FALSE(all_reachable(ls.topo, h0, std::vector<NodeId>{h1}));
}

TEST(Failures, FabricCandidatesExcludeHostLinks) {
  const FatTree ft = build_fat_tree(small_ft(4, 2, 2));
  for (LinkId l : duplex_fabric_links(ft.topo)) {
    EXPECT_TRUE(is_switch(ft.topo.kind(ft.topo.link(l).src)));
    EXPECT_TRUE(is_switch(ft.topo.kind(ft.topo.link(l).dst)));
  }
}

// The *_link helpers name every link by the builders' wiring order.
TEST(FatTree, LinkIdsFollowWiringOrder) {
  for (const FatTreeConfig& config :
       {FatTreeConfig{4, -1, 0}, FatTreeConfig{4, 2, 3}, FatTreeConfig{8, 3, 1}}) {
    const FatTree ft = build_fat_tree(config);
    const Topology& t = ft.topo;
    const int half = config.k / 2;
    for (int p = 0; p < config.k; ++p) {
      for (int a = 0; a < half; ++a) {
        for (int j = 0; j < half; ++j) {
          EXPECT_EQ(ft.agg_core_link(p, a, j), t.find_link(ft.agg_at(p, a), ft.core_at(a, j)));
          EXPECT_EQ(ft.agg_core_link(p, a, j) + 1,
                    t.find_link(ft.core_at(a, j), ft.agg_at(p, a)));
        }
        for (int tor = 0; tor < half; ++tor) {
          EXPECT_EQ(ft.tor_agg_link(p, tor, a), t.find_link(ft.tor_at(p, tor), ft.agg_at(p, a)));
        }
      }
    }
    for (std::size_t h = 0; h < ft.hosts.size(); ++h) {
      EXPECT_EQ(ft.host_link(static_cast<int>(h)),
                t.find_link(ft.hosts[h], t.tor_of(ft.hosts[h])));
    }
    for (std::size_t g = 0; g < ft.gpus.size(); ++g) {
      EXPECT_EQ(ft.gpu_link(static_cast<int>(g)) + 1,
                t.find_link(t.host_of(ft.gpus[g]), ft.gpus[g]));
    }
  }
}

TEST(LeafSpine, LinkIdsFollowWiringOrder) {
  for (const LeafSpineConfig& config :
       {LeafSpineConfig{4, 6, 2, 0}, LeafSpineConfig{3, 5, 3, 2}}) {
    const LeafSpine ls = build_leaf_spine(config);
    const Topology& t = ls.topo;
    for (int l = 0; l < config.leaves; ++l) {
      for (int s = 0; s < config.spines; ++s) {
        EXPECT_EQ(ls.leaf_spine_link(l, s),
                  t.find_link(ls.leaves[static_cast<std::size_t>(l)],
                              ls.spines[static_cast<std::size_t>(s)]));
      }
    }
    for (std::size_t h = 0; h < ls.hosts.size(); ++h) {
      EXPECT_EQ(ls.host_link(static_cast<int>(h)) + 1,
                t.find_link(t.tor_of(ls.hosts[h]), ls.hosts[h]));
    }
    for (std::size_t g = 0; g < ls.gpus.size(); ++g) {
      EXPECT_EQ(ls.gpu_link(static_cast<int>(g)),
                t.find_link(ls.gpus[g], t.host_of(ls.gpus[g])));
    }
  }
}

}  // namespace
}  // namespace peel
