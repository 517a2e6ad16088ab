// Packet data-plane pins for the compact stream tables: the Network compiles
// every stream into tree slots (one per node the forward map names) instead
// of node-count-sized arrays, and an Arrive event carries the slot of its
// link's far end. These cells exercise every path that indexes the slots —
// unicast Ring streams, switch-combined reduce streams with the byte audit
// and reduction ledger armed, and flapping links that truncate streams and
// open recovery streams mid-run — and must reproduce, collective by
// collective, the CCTs the node-indexed tables produced. The sharded cell
// additionally pins that every domain replica numbers the slots alike: an
// Arrive crossing domains is decoded by the receiving replica's tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/harness/experiment.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

std::vector<std::int64_t> cct_ns(const Samples& cct) {
  std::vector<std::int64_t> out;
  for (const double v : cct.values()) out.push_back(std::llround(v * 1e9));
  return out;
}

/// 4 pods x 2 ToRs x 2 hosts x 4 GPUs = 64 GPUs (4 pod domains + core).
Fabric small_fat_tree() {
  static const FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});
  return Fabric::of(ft);
}

ScenarioConfig ring_cell() {
  ScenarioConfig c;
  c.scheme = Scheme::Ring;
  c.collective = CollectiveKind::Broadcast;
  c.group_size = 24;
  c.message_bytes = 1 * kMiB;
  c.collectives = 20;
  c.offered_load = 0.6;
  c.seed = 1301;
  c.byte_audit = true;
  c.watchdog = true;
  return c;
}

TEST(StreamSlots, RingBroadcastCellReproducesPinnedCcts) {
  const ScenarioResult r = run_scenario(small_fat_tree(), ring_cell());
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.ecn_marks, 685u);
  EXPECT_EQ(r.segments, 21152u);
  EXPECT_EQ(cct_ns(r.cct_seconds),
            (std::vector<std::int64_t>{
                321297, 277205, 375827, 596306, 360521, 521713, 395338,
                596199, 949689, 865260, 818334, 325958, 304035, 796252,
                305840, 675345, 395734, 538882, 594108, 345652}));
}

ScenarioConfig innet_cell() {
  ScenarioConfig c;
  c.scheme = Scheme::InNet;
  c.collective = CollectiveKind::AllReduce;
  c.group_size = 16;
  c.message_bytes = 1 * kMiB;
  c.collectives = 12;
  c.offered_load = 0.5;
  c.seed = 1302;
  c.byte_audit = true;  // arms the reduction ledger for the reduce streams
  c.watchdog = true;
  return c;
}

TEST(StreamSlots, InNetAllReduceCellWithLedgerReproducesPinnedCcts) {
  const ScenarioResult r = run_scenario(small_fat_tree(), innet_cell());
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.ecn_marks, 159u);
  EXPECT_EQ(r.segments, 8448u);
  EXPECT_GT(r.reduce_sram_peak, 0);
  EXPECT_EQ(cct_ns(r.cct_seconds),
            (std::vector<std::int64_t>{125937, 125937, 125937, 225554, 258031,
                                       261293, 210517, 125937, 125937, 125937,
                                       125937, 125937}));
}

TEST(StreamSlots, FlappingPeelCellReproducesPinnedCcts) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  ScenarioConfig c;
  c.scheme = Scheme::Peel;
  c.collective = CollectiveKind::Broadcast;
  c.group_size = 16;
  c.message_bytes = 256 * kKiB;
  c.collectives = 10;
  c.offered_load = 0.5;
  c.seed = 1303;
  c.byte_audit = true;
  c.watchdog = true;
  c.runner.peel_asymmetric = true;
  c.faults.flap.mtbf_seconds = 60e-6;
  c.faults.flap.mttr_seconds = 25e-6;
  c.faults.flap.links = 12;
  c.faults.flap.horizon_seconds = 400e-6;
  const ScenarioResult r = run_scenario(Fabric::of(ls), c);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.ecn_marks, 293u);
  EXPECT_EQ(r.segments, 3146u);
  EXPECT_EQ(r.fault_downs, 66u);
  EXPECT_EQ(r.recovered_deliveries, 1476u);
  EXPECT_EQ(r.segments_lost, 59u);
  EXPECT_EQ(cct_ns(r.cct_seconds),
            (std::vector<std::int64_t>{131632, 121100, 151707, 122888, 143941,
                                       101528, 524054, 358491, 454284,
                                       88802}));
}

/// Sharded runs at one and at four workers over the fabric's five domains
/// (4 pods + core). Both use the same decomposition, so every simulated
/// output must agree; a replica that numbered a stream's slots differently
/// would misroute the Arrives it receives from its peers.
void expect_sharded_matches_one_worker(
    ScenarioConfig c, std::uint64_t ecn_marks, std::uint64_t segments,
    const std::vector<std::int64_t>& pinned) {
  c.shards = 1;
  const ScenarioResult one = run_scenario(small_fat_tree(), c);
  c.shards = 4;
  const ScenarioResult four = run_scenario(small_fat_tree(), c);
  EXPECT_EQ(one.cct_seconds.values(), four.cct_seconds.values());
  EXPECT_EQ(one.fabric_bytes, four.fabric_bytes);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.segments, four.segments);
  EXPECT_EQ(one.ecn_marks, four.ecn_marks);
  EXPECT_EQ(one.pfc_pauses, four.pfc_pauses);
  EXPECT_EQ(four.unfinished, 0u);
  EXPECT_EQ(four.ecn_marks, ecn_marks);
  EXPECT_EQ(four.segments, segments);
  EXPECT_EQ(cct_ns(four.cct_seconds), pinned);
}

TEST(StreamSlots, ShardedRingCellMatchesOneWorkerAndPinnedCcts) {
  expect_sharded_matches_one_worker(
      ring_cell(), 697, 21152,
      {325244, 288652, 380248, 619169, 373550, 531650, 403124,
       608815, 972787, 888358, 851918, 343433, 329807, 818850,
       326107, 693209, 416118, 558995, 614220, 353293});
}

TEST(StreamSlots, ShardedInNetCellMatchesOneWorkerAndPinnedCcts) {
  expect_sharded_matches_one_worker(
      innet_cell(), 160, 8448,
      {126437, 126437, 126437, 226054, 258531, 261793, 211017, 126437,
       126437, 126437, 126437, 126437});
}

}  // namespace
}  // namespace peel
