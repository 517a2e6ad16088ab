#include <gtest/gtest.h>

#include "src/harness/experiment.h"

namespace peel {
namespace {

struct AllReduceFixture : ::testing::Test {
  FatTree ft = build_fat_tree(FatTreeConfig{4, 2, 4});  // 64 GPUs
  Fabric fabric = Fabric::of(ft);

  struct Outcome {
    CollectiveRecord record;
    Bytes fabric_bytes = 0;
  };
  Outcome run_one(Scheme scheme, std::size_t n, Bytes buffer,
                  RunnerOptions opts = {}) {
    EventQueue queue;
    SimConfig sim;
    Network net(ft.topo, sim, queue);
    CollectiveRunner runner(fabric, net, queue, Rng(5), opts);
    AllReduceRequest req;
    req.id = 1;
    req.members.assign(ft.gpus.begin(), ft.gpus.begin() + static_cast<long>(n));
    req.buffer_bytes = buffer;
    runner.submit_allreduce(scheme, std::move(req));
    queue.run();
    Outcome out;
    out.record = runner.records().front();
    out.fabric_bytes = bytes_on_links(net, ft.topo, true, true, false);
    return out;
  }
};

TEST_F(AllReduceFixture, RingCompletes) {
  const Outcome o = run_one(Scheme::Ring, 16, 16 * kMiB);
  EXPECT_TRUE(o.record.finished);
  EXPECT_GT(o.record.cct_seconds(), 0.0);
}

TEST_F(AllReduceFixture, TreeReduceSchemesComplete) {
  for (Scheme scheme : {Scheme::BinaryTree, Scheme::Optimal, Scheme::Peel}) {
    const Outcome o = run_one(scheme, 16, 16 * kMiB);
    EXPECT_TRUE(o.record.finished) << to_string(scheme);
    EXPECT_GT(o.record.cct_seconds(), 0.0) << to_string(scheme);
  }
}

TEST_F(AllReduceFixture, TinyGroups) {
  for (Scheme scheme : {Scheme::Ring, Scheme::Optimal}) {
    const Outcome o = run_one(scheme, 2, 1 * kMiB);
    EXPECT_TRUE(o.record.finished) << to_string(scheme);
  }
  const Outcome three = run_one(Scheme::Peel, 3, 1 * kMiB);
  EXPECT_TRUE(three.record.finished);
}

TEST_F(AllReduceFixture, MulticastBroadcastPhaseBeatsUnicastTree) {
  // Same reduce phase; the broadcast phase is where Optimal/PEEL win.
  const Outcome tree = run_one(Scheme::BinaryTree, 32, 16 * kMiB);
  const Outcome optimal = run_one(Scheme::Optimal, 32, 16 * kMiB);
  const Outcome peel = run_one(Scheme::Peel, 32, 16 * kMiB);
  EXPECT_LT(optimal.record.cct_seconds(), tree.record.cct_seconds());
  EXPECT_LT(peel.record.cct_seconds(), tree.record.cct_seconds());
  EXPECT_LT(optimal.fabric_bytes, tree.fabric_bytes);
}

TEST_F(AllReduceFixture, RingWinsLargeAllReduce) {
  // AllReduce's heavy half is the many-to-one reduction — not a one-to-many
  // primitive, so multicast cannot help it. Ring allreduce moves only
  // 2(n-1)/n of the buffer per NIC and wins on large buffers (exactly why
  // NCCL rings big AllReduces); the tree reduction funnels 2x the buffer
  // into every internal rank's NIC.
  const Outcome ring = run_one(Scheme::Ring, 32, 32 * kMiB);
  const Outcome optimal = run_one(Scheme::Optimal, 32, 32 * kMiB);
  EXPECT_LT(ring.record.cct_seconds(), optimal.record.cct_seconds());
  EXPECT_LT(ring.fabric_bytes, optimal.fabric_bytes);
}

TEST_F(AllReduceFixture, RejectsBadRequests) {
  EventQueue queue;
  SimConfig sim;
  Network net(ft.topo, sim, queue);
  CollectiveRunner runner(fabric, net, queue, Rng(5), RunnerOptions{});

  AllReduceRequest solo;
  solo.id = 1;
  solo.members = {ft.gpus[0]};
  solo.buffer_bytes = kMiB;
  EXPECT_THROW(runner.submit_allreduce(Scheme::Ring, solo), std::invalid_argument);

  AllReduceRequest orca;
  orca.id = 2;
  orca.members = {ft.gpus[0], ft.gpus[1]};
  orca.buffer_bytes = kMiB;
  EXPECT_THROW(runner.submit_allreduce(Scheme::Orca, orca), std::invalid_argument);
}

TEST_F(AllReduceFixture, ScenarioDriverRuns) {
  ScenarioConfig c;
  c.scheme = Scheme::Peel;
  c.group_size = 16;
  c.message_bytes = 4 * kMiB;
  c.collectives = 4;
  c.seed = 21;
  c.collective = CollectiveKind::AllReduce;
  const ScenarioResult r = run_scenario(fabric, c);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.cct_seconds.count(), 4u);
}

// A reduce chunk id names its child rank, so it has one receiver: the tree
// schemes' delivery ledger grows with members x pieces, not members^2.
TEST(AllReduceLedger, TreeSchemesStayLinearInGroupSize) {
  const FatTree big = build_fat_tree(FatTreeConfig{16, -1, 0});  // 1,024 hosts
  const std::size_t n = big.hosts.size();
  const std::size_t pieces = RunnerOptions{}.chunks;
  for (Scheme scheme : {Scheme::BinaryTree, Scheme::Optimal, Scheme::Peel}) {
    EventQueue queue;
    SimConfig sim;
    Network net(big.topo, sim, queue);
    CollectiveRunner runner(Fabric::of(big), net, queue, Rng(5), RunnerOptions{});
    AllReduceRequest req;
    req.id = 1;
    req.members = big.hosts;
    req.buffer_bytes = 16 * kMiB;
    runner.submit_allreduce(scheme, std::move(req));
    const std::vector<StuckFlowInfo> flows = runner.stuck_flows();
    ASSERT_EQ(flows.size(), 1u) << to_string(scheme);
    EXPECT_EQ(flows[0].expected, 2 * (n - 1) * pieces) << to_string(scheme);
    // One flag per reduce id (pieces x ranks), one per (rank, piece) for
    // the broadcast.
    EXPECT_EQ(flows[0].ledger_flags, 2 * n * pieces) << to_string(scheme);
  }
}

TEST_F(AllReduceFixture, Deterministic) {
  const Outcome a = run_one(Scheme::Ring, 16, 8 * kMiB);
  const Outcome b = run_one(Scheme::Ring, 16, 8 * kMiB);
  EXPECT_EQ(a.record.finish_time, b.record.finish_time);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
}

}  // namespace
}  // namespace peel
