#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/steiner/exact.h"
#include "src/steiner/layer_peel.h"
#include "src/steiner/multicast_tree.h"
#include "src/steiner/symmetric.h"
#include "src/topology/failures.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

TEST(MulticastTree, RejectsOrphanParent) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId c = t.add_node(Node{NodeKind::Core, -1, 0});
  t.add_duplex_link(a, b, 100_gbps);
  const LinkId bc = t.add_duplex_link(b, c, 100_gbps);
  MulticastTree tree(a, {c});
  EXPECT_THROW(tree.add_link(t, bc), std::logic_error);  // b not yet in tree
}

TEST(MulticastTree, RejectsSecondInLink) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Tor, 0, 0});
  const LinkId ab = t.add_duplex_link(a, b, 100_gbps);
  const LinkId ab2 = t.add_duplex_link(a, b, 100_gbps);  // parallel link
  MulticastTree tree(a, {b});
  tree.add_link(t, ab);
  EXPECT_THROW(tree.add_link(t, ab2), std::logic_error);
}

TEST(MulticastTree, RejectsFailedLink) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Tor, 0, 0});
  const LinkId ab = t.add_duplex_link(a, b, 100_gbps);
  t.fail_duplex(ab);
  MulticastTree tree(a, {b});
  EXPECT_THROW(tree.add_link(t, ab), std::logic_error);
}

TEST(MulticastTree, ValidateDetectsMissingDestination) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId c = t.add_node(Node{NodeKind::Host, 0, 1});
  t.add_duplex_link(a, b, 100_gbps);
  t.add_duplex_link(b, c, 100_gbps);
  MulticastTree tree(a, {c});
  tree.add_link(t, t.find_link(a, b));
  const auto v = tree.validate(t);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("destination not covered"), std::string::npos);
}

TEST(MulticastTree, ValidHappyPath) {
  Topology t;
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId b = t.add_node(Node{NodeKind::Tor, 0, 0});
  const NodeId c = t.add_node(Node{NodeKind::Host, 0, 1});
  const NodeId d = t.add_node(Node{NodeKind::Host, 0, 2});
  t.add_duplex_link(a, b, 100_gbps);
  t.add_duplex_link(b, c, 100_gbps);
  t.add_duplex_link(b, d, 100_gbps);
  MulticastTree tree(a, {c, d});
  tree.add_link(t, t.find_link(a, b));
  tree.add_link(t, t.find_link(b, c));
  tree.add_link(t, t.find_link(b, d));
  EXPECT_TRUE(tree.validate(t).ok);
  EXPECT_EQ(tree.link_count(), 3u);
  EXPECT_EQ(tree.switch_count(t), 1u);
  EXPECT_EQ(tree.out_links_of(b).size(), 2u);
  EXPECT_EQ(tree.in_link_of(c), t.find_link(b, c));
  EXPECT_EQ(tree.in_link_of(a), kInvalidLink);
}

// --- Symmetric optimal trees (Lemma 2.1) -----------------------------------

TEST(Symmetric, FatTreeMatchesClosedFormCount) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    // Random group of 2..12 endpoints.
    std::vector<NodeId> pool = ft.gpus;
    rng.shuffle(pool);
    const std::size_t n = 2 + rng.next_below(11);
    const NodeId source = pool[0];
    std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + n);
    const MulticastTree tree = optimal_fat_tree_tree(ft, source, dests, trial);
    EXPECT_TRUE(tree.validate(ft.topo).ok);
    EXPECT_EQ(tree.link_count(), symmetric_optimal_link_count(ft, source, dests));
  }
}

TEST(Symmetric, SameHostGroupUsesOnlyNvLink) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const NodeId source = ft.gpus[0];
  const std::vector<NodeId> dests{ft.gpus[1], ft.gpus[2]};
  const MulticastTree tree = optimal_fat_tree_tree(ft, source, dests, 0);
  EXPECT_TRUE(tree.validate(ft.topo).ok);
  EXPECT_EQ(tree.link_count(), 3u);  // gpu->host + host->gpu x2
  for (LinkId l : tree.links()) {
    EXPECT_EQ(ft.topo.link(l).kind, LinkKind::NvLink);
  }
}

TEST(Symmetric, SelectorPicksDifferentCores) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 1, 0});
  const NodeId source = ft.hosts.front();
  const std::vector<NodeId> dests{ft.hosts.back()};
  const MulticastTree t0 = optimal_fat_tree_tree(ft, source, dests, 0);
  const MulticastTree t1 = optimal_fat_tree_tree(ft, source, dests, 1);
  EXPECT_EQ(t0.link_count(), t1.link_count());
  EXPECT_NE(t0.links(), t1.links());
}

TEST(Symmetric, LeafSpineOptimal) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 4, 2, 0});
  const NodeId source = ls.hosts[0];
  // One dest under the source leaf, two under others.
  const std::vector<NodeId> dests{ls.hosts[1], ls.hosts[2], ls.hosts[6]};
  const MulticastTree tree = optimal_leaf_spine_tree(ls, source, dests, 0);
  EXPECT_TRUE(tree.validate(ls.topo).ok);
  // host->leaf + leaf->host1 + leaf->spine + spine->leaf1 + leaf1->host2 +
  // spine->leaf3 + leaf3->host6 = 7
  EXPECT_EQ(tree.link_count(), 7u);
}

TEST(Symmetric, ThrowsWhenAsymmetric) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{1, 2, 1, 0});
  ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[1], ls.spines[0]));
  EXPECT_THROW(optimal_leaf_spine_tree(ls, ls.hosts[0],
                                       std::vector<NodeId>{ls.hosts[1]}, 0),
               std::runtime_error);
}

// --- Layer peeling (§2.3) ---------------------------------------------------

TEST(LayerPeel, OptimalOnSymmetricLeafSpine) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 0});
  const NodeId source = ls.hosts[0];
  std::vector<NodeId> dests;
  for (std::size_t i = 1; i < ls.hosts.size(); i += 2) dests.push_back(ls.hosts[i]);
  const MulticastTree greedy = layer_peel_tree(ls.topo, source, dests);
  EXPECT_TRUE(greedy.validate(ls.topo).ok);
  const MulticastTree optimal = optimal_leaf_spine_tree(ls, source, dests, 0);
  // With full symmetry one spine covers every leaf, so greedy == optimal.
  EXPECT_EQ(greedy.link_count(), optimal.link_count());
}

TEST(LayerPeel, SurvivesFailures) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 0});
  Rng rng(11);
  const auto candidates = duplex_spine_leaf_links(ls.topo);
  fail_random_fraction(ls.topo, candidates, 0.2, rng);
  const NodeId source = ls.hosts[0];
  std::vector<NodeId> dests(ls.hosts.begin() + 1, ls.hosts.end());
  if (!all_reachable(ls.topo, source, dests)) GTEST_SKIP();
  const MulticastTree greedy = layer_peel_tree(ls.topo, source, dests);
  EXPECT_TRUE(greedy.validate(ls.topo).ok);
}

TEST(LayerPeel, ThrowsOnUnreachableDestination) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 1, 0});
  for (NodeId spine : ls.spines) {
    ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[1], spine));
  }
  EXPECT_THROW(
      layer_peel_tree(ls.topo, ls.hosts[0], std::vector<NodeId>{ls.hosts[1]}),
      std::runtime_error);
}

TEST(LayerPeel, ThrowsIfSourceIsDestination) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 1, 0});
  EXPECT_THROW(
      layer_peel_tree(ls.topo, ls.hosts[0], std::vector<NodeId>{ls.hosts[0]}),
      std::runtime_error);
}

TEST(LayerPeel, FarthestDistance) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 4, 1, 0});
  // host0 -> leaf -> spine -> leaf -> host3: F = 4.
  EXPECT_EQ(farthest_destination_distance(ls.topo, ls.hosts[0],
                                          std::vector<NodeId>{ls.hosts[3]}),
            4);
  EXPECT_EQ(farthest_destination_distance(ls.topo, ls.hosts[0],
                                          std::vector<NodeId>{ls.hosts[1]}),
            4);  // different leaf as well (1 host per leaf)
}

TEST(LayerPeel, PrefersCoveringSwitch) {
  // Asymmetric: spine 0 reaches leaves {0,1}, spine 1 reaches {0,1,2,3}.
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 4, 1, 0});
  ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[2], ls.spines[0]));
  ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[3], ls.spines[0]));
  const NodeId source = ls.hosts[0];
  std::vector<NodeId> dests{ls.hosts[1], ls.hosts[2], ls.hosts[3]};
  const MulticastTree greedy = layer_peel_tree(ls.topo, source, dests);
  EXPECT_TRUE(greedy.validate(ls.topo).ok);
  // Greedy must choose spine 1 (covers 3 leaves) and produce the optimal
  // 8-link tree: up(2) + spine->leaf x3 + leaf->host x3.
  EXPECT_EQ(greedy.link_count(), 8u);
  EXPECT_FALSE(greedy.contains(ls.spines[0]));
  EXPECT_TRUE(greedy.contains(ls.spines[1]));
}

TEST(LayerPeel, PaperFigure2Walkthrough) {
  // The §2.3 walk-through fabric: source S on leaf 1, destinations
  // {A, B, D, E}; failures leave leaf 1 on spine 5 only and leaf 2 (B's
  // leaf) on spine 6 only, so reaching B needs the detour
  // S -> 1 -> 5 -> 3 -> 6 -> 2 -> B (B sits at hop layer 6, the paper's F).
  Topology t;
  const NodeId s = t.add_node(Node{NodeKind::Host, 0, 0});   // S
  const NodeId a = t.add_node(Node{NodeKind::Host, 0, 1});   // A (leaf 1)
  const NodeId b = t.add_node(Node{NodeKind::Host, 0, 2});   // B (leaf 2)
  const NodeId d = t.add_node(Node{NodeKind::Host, 0, 3});   // D (leaf 3)
  const NodeId e = t.add_node(Node{NodeKind::Host, 0, 4});   // E (leaf 3)
  const NodeId l1 = t.add_node(Node{NodeKind::Tor, 0, 1});
  const NodeId l2 = t.add_node(Node{NodeKind::Tor, 0, 2});
  const NodeId l3 = t.add_node(Node{NodeKind::Tor, 0, 3});
  const NodeId l4 = t.add_node(Node{NodeKind::Tor, 0, 4});
  const NodeId s5 = t.add_node(Node{NodeKind::Core, -1, 5});
  const NodeId s6 = t.add_node(Node{NodeKind::Core, -1, 6});

  t.add_duplex_link(s, l1, 100_gbps);
  t.add_duplex_link(a, l1, 100_gbps);
  t.add_duplex_link(b, l2, 100_gbps);
  t.add_duplex_link(d, l3, 100_gbps);
  t.add_duplex_link(e, l3, 100_gbps);
  t.add_duplex_link(l1, s5, 100_gbps);  // leaf 1 lost its link to spine 6
  t.add_duplex_link(l2, s6, 100_gbps);  // leaf 2 lost its link to spine 5
  t.add_duplex_link(l3, s5, 100_gbps);
  t.add_duplex_link(l3, s6, 100_gbps);
  t.add_duplex_link(l4, s5, 100_gbps);  // leaf 4 exists but covers nothing

  const std::vector<NodeId> dests{a, b, d, e};
  EXPECT_EQ(farthest_destination_distance(t, s, dests), 6);  // B

  const MulticastTree tree = layer_peel_tree(t, s, dests);
  ASSERT_TRUE(tree.validate(t).ok) << tree.validate(t).error;
  // The walk-through's outcome: five switches — 1, 5, 3, 6, 2 — one more
  // than the failure-free optimum of four (1, one spine, 3, 2).
  EXPECT_EQ(tree.switch_count(t), 5u);
  for (NodeId sw : {l1, s5, l3, s6, l2}) EXPECT_TRUE(tree.contains(sw));
  EXPECT_FALSE(tree.contains(l4));
  // On this asymmetric fabric the greedy happens to be exactly optimal.
  EXPECT_EQ(static_cast<int>(tree.link_count()), exact_steiner_cost(t, s, dests));
}

// --- Exact Steiner (Dreyfus–Wagner) -----------------------------------------

TEST(ExactSteiner, PathGraph) {
  Topology t;
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) {
    chain.push_back(t.add_node(Node{NodeKind::Tor, 0, i}));
    if (i) t.add_duplex_link(chain[static_cast<std::size_t>(i) - 1], chain.back(), 100_gbps);
  }
  EXPECT_EQ(exact_steiner_cost(t, chain[0], std::vector<NodeId>{chain[4]}), 4);
  EXPECT_EQ(exact_steiner_cost(t, chain[2],
                               std::vector<NodeId>{chain[0], chain[4]}),
            4);
}

TEST(ExactSteiner, StarBeatsIndependentPaths) {
  // Terminals around a hub: the tree shares the hub.
  Topology t;
  const NodeId hub = t.add_node(Node{NodeKind::Core, -1, 0});
  std::vector<NodeId> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(t.add_node(Node{NodeKind::Tor, 0, i}));
    t.add_duplex_link(hub, leaves.back(), 100_gbps);
  }
  EXPECT_EQ(exact_steiner_cost(t, leaves[0],
                               std::vector<NodeId>{leaves[1], leaves[2], leaves[3]}),
            4);
}

TEST(ExactSteiner, MatchesSymmetricOptimalOnFatTree) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 1, 0});
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<NodeId> pool = ft.hosts;
    rng.shuffle(pool);
    const std::size_t n = 2 + rng.next_below(4);
    const NodeId source = pool[0];
    std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 1 + n);
    const int exact = exact_steiner_cost(ft.topo, source, dests);
    const MulticastTree opt = optimal_fat_tree_tree(ft, source, dests, 0);
    EXPECT_EQ(static_cast<std::size_t>(exact), opt.link_count())
        << "trial " << trial;
  }
}

TEST(ExactSteiner, GreedyWithinTheoremBound) {
  Rng rng(23);
  for (int trial = 0; trial < 15; ++trial) {
    LeafSpine ls = build_leaf_spine(LeafSpineConfig{3, 6, 1, 0});
    Rng frng = rng.fork(static_cast<std::uint64_t>(trial));
    fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), 0.25, frng);
    std::vector<NodeId> pool = ls.hosts;
    frng.shuffle(pool);
    const NodeId source = pool[0];
    std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 5);
    if (!all_reachable(ls.topo, source, dests)) continue;
    const MulticastTree greedy = layer_peel_tree(ls.topo, source, dests);
    ASSERT_TRUE(greedy.validate(ls.topo).ok);
    const int exact = exact_steiner_cost(ls.topo, source, dests);
    const int f = farthest_destination_distance(ls.topo, source, dests);
    const int bound = std::min<int>(f, static_cast<int>(dests.size()));
    EXPECT_GE(static_cast<int>(greedy.link_count()), exact);
    EXPECT_LE(static_cast<int>(greedy.link_count()), exact * bound);
  }
}

TEST(ExactSteiner, GreedyCanBeSuboptimal) {
  // Classic set-cover counterexample embedded in a two-tier fabric: spines
  //   BIG = {leaf1..leaf4},  ODD = {leaf1, leaf3, leaf5},  EVEN = {leaf2,
  //   leaf4, leaf6}.
  // The optimal tree uses ODD+EVEN (2 spines); the greedy grabs BIG first
  // (covers 4) and then still needs both ODD and EVEN for leaves 5 and 6 —
  // one extra switch, exactly the kind of gap Theorem 2.5 bounds.
  Topology t;
  const NodeId src_host = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId src_leaf = t.add_node(Node{NodeKind::Tor, 0, 0});
  t.add_duplex_link(src_host, src_leaf, 100_gbps);
  const NodeId big = t.add_node(Node{NodeKind::Core, -1, 0});
  const NodeId odd = t.add_node(Node{NodeKind::Core, -1, 1});
  const NodeId even = t.add_node(Node{NodeKind::Core, -1, 2});
  for (NodeId spine : {big, odd, even}) t.add_duplex_link(src_leaf, spine, 100_gbps);
  std::vector<NodeId> leaves, hosts;
  for (int i = 1; i <= 6; ++i) {
    leaves.push_back(t.add_node(Node{NodeKind::Tor, 0, i}));
    hosts.push_back(t.add_node(Node{NodeKind::Host, 0, i}));
    t.add_duplex_link(leaves.back(), hosts.back(), 100_gbps);
  }
  for (int i : {1, 2, 3, 4}) t.add_duplex_link(big, leaves[static_cast<std::size_t>(i - 1)], 100_gbps);
  for (int i : {1, 3, 5}) t.add_duplex_link(odd, leaves[static_cast<std::size_t>(i - 1)], 100_gbps);
  for (int i : {2, 4, 6}) t.add_duplex_link(even, leaves[static_cast<std::size_t>(i - 1)], 100_gbps);

  const MulticastTree greedy = layer_peel_tree(t, src_host, hosts);
  ASSERT_TRUE(greedy.validate(t).ok);
  const int exact = exact_steiner_cost(t, src_host, hosts);
  // Optimal: host->leaf + 2 spine links + 6 leaf links + 6 host links = 15.
  EXPECT_EQ(exact, 15);
  // Greedy pays for the extra BIG spine but stays within the theorem bound.
  EXPECT_EQ(greedy.link_count(), 16u);
  EXPECT_TRUE(greedy.contains(big));
  const int f = farthest_destination_distance(t, src_host, hosts);
  EXPECT_LE(static_cast<int>(greedy.link_count()),
            exact * std::min<int>(f, static_cast<int>(hosts.size())));
}

TEST(ExactSteiner, ReconstructedTreeMatchesCost) {
  Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 1, 0});
    Rng frng = rng.fork(static_cast<std::uint64_t>(trial));
    fail_random_fraction(ls.topo, duplex_spine_leaf_links(ls.topo), 0.2, frng);
    std::vector<NodeId> pool = ls.hosts;
    frng.shuffle(pool);
    const NodeId source = pool[0];
    std::vector<NodeId> dests(pool.begin() + 1, pool.begin() + 6);
    if (!all_reachable(ls.topo, source, dests)) continue;
    const MulticastTree tree = exact_steiner_tree(ls.topo, source, dests);
    ASSERT_TRUE(tree.validate(ls.topo).ok) << tree.validate(ls.topo).error;
    EXPECT_EQ(static_cast<int>(tree.link_count()),
              exact_steiner_cost(ls.topo, source, dests));
  }
}

TEST(ExactSteiner, ReconstructedTreeOnCounterexample) {
  // Same fabric as GreedyCanBeSuboptimal: the exact tree must pick ODD+EVEN.
  Topology t;
  const NodeId src_host = t.add_node(Node{NodeKind::Host, 0, 0});
  const NodeId src_leaf = t.add_node(Node{NodeKind::Tor, 0, 0});
  t.add_duplex_link(src_host, src_leaf, 100_gbps);
  const NodeId big = t.add_node(Node{NodeKind::Core, -1, 0});
  const NodeId odd = t.add_node(Node{NodeKind::Core, -1, 1});
  const NodeId even = t.add_node(Node{NodeKind::Core, -1, 2});
  for (NodeId spine : {big, odd, even}) t.add_duplex_link(src_leaf, spine, 100_gbps);
  std::vector<NodeId> leaves, hosts;
  for (int i = 0; i < 6; ++i) {
    leaves.push_back(t.add_node(Node{NodeKind::Tor, 0, i + 1}));
    hosts.push_back(t.add_node(Node{NodeKind::Host, 0, i + 1}));
    t.add_duplex_link(leaves.back(), hosts.back(), 100_gbps);
  }
  for (int i : {0, 1, 2, 3}) t.add_duplex_link(big, leaves[static_cast<std::size_t>(i)], 100_gbps);
  for (int i : {0, 2, 4}) t.add_duplex_link(odd, leaves[static_cast<std::size_t>(i)], 100_gbps);
  for (int i : {1, 3, 5}) t.add_duplex_link(even, leaves[static_cast<std::size_t>(i)], 100_gbps);

  const MulticastTree tree = exact_steiner_tree(t, src_host, hosts);
  ASSERT_TRUE(tree.validate(t).ok);
  EXPECT_EQ(tree.link_count(), 15u);
  EXPECT_FALSE(tree.contains(big));  // the greedy's trap is avoided
}

TEST(ExactSteiner, RejectsTooManyTerminals) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 0});
  std::vector<NodeId> dests(ft.hosts.begin() + 1, ft.hosts.end());
  EXPECT_THROW((void)exact_steiner_cost(ft.topo, ft.hosts[0], dests, 8),
               std::invalid_argument);
}

TEST(ExactSteiner, RejectsDisconnected) {
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{1, 2, 1, 0});
  ls.topo.fail_duplex(ls.topo.find_link(ls.leaves[1], ls.spines[0]));
  EXPECT_THROW((void)exact_steiner_cost(ls.topo, ls.hosts[0],
                                  std::vector<NodeId>{ls.hosts[1]}),
               std::runtime_error);
}

}  // namespace
}  // namespace peel
