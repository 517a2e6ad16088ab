#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/prefix/plan.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

/// All member endpoints served by the plan's packets plus its local list.
std::multiset<NodeId> covered_endpoints(const Topology& topo, const PeelPlan& plan,
                                        const FatTree* ft) {
  std::multiset<NodeId> covered(plan.source_local.begin(), plan.source_local.end());
  for (const auto& rule : plan.packets) {
    for (NodeId tor : rule.member_tors) {
      for (int idx : rule.covered_host_idx) {
        const auto& n = topo.node(tor);
        const int per_rack = ft->hosts_per_tor();
        const int rack_pos =
            static_cast<int>(n.pod) * ft->tors_per_pod() + static_cast<int>(n.tier_index);
        const std::size_t hi = static_cast<std::size_t>(rack_pos * per_rack + idx);
        if (hi >= ft->hosts.size()) continue;
        const NodeId host = ft->hosts[hi];
        for (NodeId e : plan.host_members.of(host)) covered.insert(e);
      }
    }
  }
  return covered;
}

TEST(Plan, SingleRackGroup) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  // All endpoints under ToR 0 except the source's host-mates.
  const NodeId source = ft.gpus[0];
  std::vector<NodeId> dests(ft.gpus.begin() + 1, ft.gpus.begin() + 32);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  // 7 GPUs are on the source host -> local; the other 24 need fabric packets.
  EXPECT_EQ(plan.source_local.size(), 7u);
  ASSERT_FALSE(plan.packets.empty());
  for (const auto& rule : plan.packets) {
    EXPECT_EQ(rule.pods, (std::vector<int>{0}));
    EXPECT_TRUE(rule.redundant_tors.empty());
  }
  EXPECT_EQ(plan.redundant_rack_copies(), 0u);
}

TEST(Plan, BinPackedGroupIsOnePacketPerPod) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  // A full pod (4 ToRs x 4 hosts x 8 GPUs = 128 GPUs) starting at pod 1.
  const std::size_t start = 128;
  const NodeId source = ft.gpus[start];
  std::vector<NodeId> dests(ft.gpus.begin() + static_cast<std::ptrdiff_t>(start) + 1,
                            ft.gpus.begin() + static_cast<std::ptrdiff_t>(start) + 128);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  // Whole pod = a single ToR prefix (****) and a single host prefix.
  ASSERT_EQ(plan.packets.size(), 1u);
  EXPECT_EQ(plan.packets[0].pods, (std::vector<int>{1}));
  EXPECT_EQ(plan.packets[0].pod_prefix, (Prefix{1, 3}));  // 8 pods -> "001"
  EXPECT_EQ(plan.packets[0].tor_prefix, (Prefix{0, 0}));
  EXPECT_EQ(plan.packets[0].host_prefix, (Prefix{0, 0}));
  EXPECT_EQ(plan.packets[0].member_tors.size(), 4u);
  EXPECT_TRUE(plan.packets[0].redundant_tors.empty());
}

TEST(Plan, AlignedMultiPodGroupMergesIntoOnePacket) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  // Pods 0 and 1 entirely (256 GPUs): identical ToR/host coverage in both
  // pods, and {0,1} is an aligned pod block, so the core-tier pod prefix
  // carries ONE packet to both pods (§3.2 applied to the core tier).
  const NodeId source = ft.gpus[0];
  std::vector<NodeId> dests(ft.gpus.begin() + 1, ft.gpus.begin() + 256);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  ASSERT_EQ(plan.packets.size(), 1u);
  EXPECT_EQ(plan.packets[0].pods, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.packets[0].pod_prefix, (Prefix{0, 2}));  // "00*"
  EXPECT_EQ(plan.packets[0].member_tors.size(), 8u);
  EXPECT_EQ(plan.redundant_rack_copies(), 0u);
}

TEST(Plan, MisalignedPodsNeedMorePackets) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  // Pods 1 and 2 entirely: {1,2} is not an aligned block -> two packets.
  const NodeId source = ft.gpus[128];
  std::vector<NodeId> dests;
  for (std::size_t i = 129; i < 384; ++i) dests.push_back(ft.gpus[i]);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  EXPECT_EQ(plan.packets.size(), 2u);
}

TEST(Plan, PacketsPartitionTheGroup) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const NodeId source = ft.gpus[40];
  // Straddle pods: GPUs 41..299.
  std::vector<NodeId> dests(ft.gpus.begin() + 41, ft.gpus.begin() + 300);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  const auto covered = covered_endpoints(ft.topo, plan, &ft);
  const std::multiset<NodeId> expected(dests.begin(), dests.end());
  EXPECT_EQ(covered, expected);  // every member exactly once, nothing else
}

TEST(Plan, HeaderBitsWithinBudget) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const PeelPlan plan = build_peel_plan(ft, ft.gpus[0],
                                        std::vector<NodeId>{ft.gpus[100]});
  EXPECT_EQ(plan.tor_id_bits, 2);   // 4 ToRs/pod
  EXPECT_EQ(plan.host_id_bits, 2);  // 4 hosts/rack
  EXPECT_LE(plan.header_bits(), 64);  // < 8 B total
}

TEST(Plan, FragmentedGroupNeedsMorePackets) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 1});
  const NodeId source = ft.gpus[0];
  // Every second rack of pod 0: ToRs 0 and 2 (fragmented placement).
  std::vector<NodeId> contiguous, fragmented;
  for (int g = 1; g < 8; ++g) contiguous.push_back(ft.gpus[static_cast<std::size_t>(g)]);
  for (int g : {1, 2, 3, 8, 9, 10, 11}) {
    fragmented.push_back(ft.gpus[static_cast<std::size_t>(g)]);
  }
  // contiguous = racks 0..1, fragmented = racks 0 and 2.
  const PeelPlan cplan = build_peel_plan(ft, source, contiguous);
  const PeelPlan fplan = build_peel_plan(ft, source, fragmented);
  std::size_t cpk = cplan.packets.size(), fpk = fplan.packets.size();
  EXPECT_LE(cpk, fpk);
}

TEST(Plan, BoundedCoverIntroducesRedundancy) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 1});
  const NodeId source = ft.gpus[0];
  // Racks 0, 1, 3 of pod 0 (hole at rack 2): exact needs 2 ToR prefixes.
  std::vector<NodeId> dests;
  for (int g : {1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15}) {
    dests.push_back(ft.gpus[static_cast<std::size_t>(g)]);
  }
  const PeelPlan exact = build_peel_plan(ft, source, dests);
  EXPECT_EQ(exact.redundant_rack_copies(), 0u);
  const PeelPlan bounded =
      build_peel_plan(ft, source, dests, PeelCoverOptions{1, 0});
  // One prefix must cover racks 0..3 -> rack 2 over-covered.
  EXPECT_EQ(bounded.redundant_rack_copies(), 1u);
  std::set<int> tor_prefix_count;
  for (const auto& rule : bounded.packets) {
    tor_prefix_count.insert(static_cast<int>(rule.tor_prefix.value) << 8 |
                            rule.tor_prefix.length);
  }
  EXPECT_EQ(tor_prefix_count.size(), 1u);
}

TEST(Plan, SourceOnlyLocalGroup) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  const NodeId source = ft.gpus[0];
  const std::vector<NodeId> dests{ft.gpus[1], ft.gpus[2], ft.gpus[3]};
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  EXPECT_TRUE(plan.packets.empty());
  EXPECT_EQ(plan.source_local.size(), 3u);
}

TEST(Plan, RejectsSourceAsDestination) {
  const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 2});
  EXPECT_THROW(
      build_peel_plan(ft, ft.gpus[0], std::vector<NodeId>{ft.gpus[0]}),
      std::invalid_argument);
}

TEST(Plan, LeafSpineWholeTierIsOnePod) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const NodeId source = ls.gpus[0];
  std::vector<NodeId> dests(ls.gpus.begin() + 4, ls.gpus.begin() + 20);
  const PeelPlan plan = build_peel_plan(ls, source, dests);
  EXPECT_EQ(plan.tor_id_bits, 3);  // 8 leaves
  for (const auto& rule : plan.packets) EXPECT_EQ(rule.pods, (std::vector<int>{0}));
  // Members are leaves {1,2,3,4}; the source's leaf 0 is a free don't-care,
  // so the cover is {0**, 100} (two packets) and only the source's own leaf
  // is swept up redundantly.
  EXPECT_EQ(plan.packets.size(), 2u);
  ASSERT_EQ(plan.redundant_rack_copies(), 1u);
  for (const auto& rule : plan.packets) {
    for (NodeId tor : rule.redundant_tors) EXPECT_EQ(tor, ls.leaves[0]);
  }
}

TEST(Plan, SourceRackDontCareSavesAPacket) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 1});
  // Source in rack 0; members fill racks 1..3. Without the don't-care the
  // cover would need {01, 1*}; absorbing rack 0 gives a single ** block.
  const NodeId source = ft.gpus[0];
  std::vector<NodeId> dests(ft.gpus.begin() + 4, ft.gpus.begin() + 16);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  ASSERT_EQ(plan.packets.size(), 1u);
  EXPECT_EQ(plan.packets[0].tor_prefix, (Prefix{0, 0}));
}

TEST(Plan, HostPrefixCoversUnionOfRacks) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 1});
  // Rack 0 hosts {1,2,3} (host 0 = source), rack 1 hosts {0,1}: union {0..3}
  // -> host prefix ** covering 4 idx; rack members not in the union slots
  // become redundant deliveries at that rack.
  const NodeId source = ft.gpus[0];
  std::vector<NodeId> dests;
  for (int g : {1, 2, 3, 4, 5}) dests.push_back(ft.gpus[static_cast<std::size_t>(g)]);
  const PeelPlan plan = build_peel_plan(ft, source, dests);
  ASSERT_EQ(plan.packets.size(), 1u);  // racks 0-1 = prefix 0*, hosts union 0..3 = **
  EXPECT_EQ(plan.packets[0].tor_prefix, (Prefix{0, 1}));
  EXPECT_EQ(plan.packets[0].covered_host_idx.size(), 4u);
}

}  // namespace
}  // namespace peel
