#include <gtest/gtest.h>

#include "src/baselines/bandwidth.h"
#include "src/baselines/rsbf.h"
#include "src/steiner/symmetric.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

TEST(Rsbf, ElementsGrowCubically) {
  EXPECT_EQ(rsbf_tree_elements(4), 16u + 8u + 3u + 3u);
  const double ratio = static_cast<double>(rsbf_tree_elements(64)) /
                       static_cast<double>(rsbf_tree_elements(32));
  EXPECT_NEAR(ratio, 8.0, 0.5);  // k^3 dominates
}

TEST(Rsbf, BloomBitsFormula) {
  // n * ln(1/f) / ln^2(2): 1000 elements at 1% ~ 9585 bits.
  EXPECT_NEAR(bloom_filter_bits(1000, 0.01), 9585.0, 5.0);
  EXPECT_THROW((void)bloom_filter_bits(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)bloom_filter_bits(10, 1.0), std::invalid_argument);
}

TEST(Rsbf, HeaderExceedsMtuPastK32) {
  // Figure 3's claim: even at FPR 20% the header passes a 1500 B MTU once
  // k > 32.
  EXPECT_LT(rsbf_header_bytes(16, 0.20), 1500.0);
  EXPECT_GT(rsbf_header_bytes(64, 0.20), 1500.0);
  EXPECT_GT(rsbf_bandwidth_overhead(64, 0.20), 1.0);  // >100% overhead
}

TEST(Rsbf, TighterFprCostsMoreHeader) {
  for (int k : {8, 16, 32, 64}) {
    EXPECT_GT(rsbf_header_bytes(k, 0.01), rsbf_header_bytes(k, 0.05));
    EXPECT_GT(rsbf_header_bytes(k, 0.05), rsbf_header_bytes(k, 0.20));
  }
}

TEST(Rsbf, RedundantTrafficScalesWithFpr) {
  EXPECT_DOUBLE_EQ(rsbf_expected_redundant_links(1000, 0.05), 50.0);
  EXPECT_GT(rsbf_expected_redundant_links(1000, 0.20),
            rsbf_expected_redundant_links(1000, 0.01));
}

// --- Figure 1: bandwidth accounting on the paper's 2-spine 2-leaf fabric ----

struct Fig1Fixture : ::testing::Test {
  // S0,S1 spines; L0,L1 leaves; G0..G7, four GPUs per leaf — Figure 1's
  // topology with GPUs directly attached to leaves (hosts_per_leaf=4, no GPU
  // tier).
  LeafSpine ls = build_leaf_spine(LeafSpineConfig{2, 2, 4, 0});

  NodeId source() const { return ls.hosts[0]; }
  std::vector<NodeId> dests() const {
    return {ls.hosts.begin() + 1, ls.hosts.end()};
  }
};

TEST_F(Fig1Fixture, OptimalTraversesCoreOnce) {
  const MulticastTree tree = optimal_leaf_spine_tree(ls, source(), dests(), 0);
  const LinkLoad load = tree_load(ls.topo, tree);
  // One leaf->spine + one spine->leaf crossing: 2 core-link traversals.
  EXPECT_EQ(load.core_total(ls.topo), 2);
  EXPECT_EQ(load.max_on_any_link(), 1);
  // 8 host links (7 dests + 1 source up) + 2 core links.
  EXPECT_EQ(load.total(), 10);
}

TEST_F(Fig1Fixture, RingOvershootsOptimal) {
  Router router(ls.topo);
  const auto pairs = ring_pairs(source(), dests());
  EXPECT_EQ(pairs.size(), 8u);  // 7 chain hops + the ring's wrap-around
  const LinkLoad ring = unicast_load(ls.topo, router, pairs);
  const MulticastTree tree = optimal_leaf_spine_tree(ls, source(), dests(), 0);
  const LinkLoad optimal = tree_load(ls.topo, tree);
  // Figure 1: unicast rings traverse core links far more than the optimal 2.
  EXPECT_GT(ring.core_total(ls.topo), optimal.core_total(ls.topo));
  EXPECT_GT(ring.total(), optimal.total());
}

TEST_F(Fig1Fixture, BinaryTreeOvershootsOptimal) {
  Router router(ls.topo);
  const auto pairs = binary_tree_pairs(source(), dests());
  EXPECT_EQ(pairs.size(), 7u);
  const LinkLoad tree_sched = unicast_load(ls.topo, router, pairs);
  const MulticastTree tree = optimal_leaf_spine_tree(ls, source(), dests(), 0);
  const LinkLoad optimal = tree_load(ls.topo, tree);
  EXPECT_GT(tree_sched.core_total(ls.topo), optimal.core_total(ls.topo));
  // Some unicast link carries the payload multiple times (Fig. 1b shows 3).
  EXPECT_GE(tree_sched.max_on_any_link(), 2);
}

TEST_F(Fig1Fixture, PairsStructure) {
  const auto ring = ring_pairs(source(), dests());
  // Chain visits each endpoint once and wraps back to the source.
  for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
    EXPECT_EQ(ring[i].second, ring[i + 1].first);
  }
  EXPECT_EQ(ring.back().second, source());
  const auto tree = binary_tree_pairs(source(), dests());
  EXPECT_EQ(tree[0].first, source());
  EXPECT_EQ(tree[1].first, source());
  EXPECT_EQ(tree[2].first, tree[0].second);
}

TEST(LinkLoadTotals, EmptyLoad) {
  LinkLoad load;
  EXPECT_EQ(load.total(), 0);
  EXPECT_EQ(load.max_on_any_link(), 0);
}

}  // namespace
}  // namespace peel
