// Flow-solver suite: the FlowNetwork's max-min rates come from one
// allocation-free water-fill per perturbed simulated instant.
//
//   1. Oracle — plain progressive filling (a full rescan of every slot per
//      round, std::find over every flow) is the reference. On randomized
//      incidences the heap water-fill must reproduce its rates exactly
//      (==), including ties in the fill level, residual capacity at or
//      below zero, flows with no live links and single-link flows.
//   2. Coalescing — N streams opened at one instant cost one solve, and
//      their rates equal the oracle's. Rate readers never see a half-solved
//      instant, and a close after the queue drained posts nothing.
//   3. Pinned results — an open-loop PEEL workload with churn and two
//      flapping-link cells reproduce, collective by collective, the CCTs
//      the solve-after-every-change solver produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/harness/workload.h"
#include "src/sim/flow_network.h"
#include "src/sim/water_fill.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

// --- 1. the oracle ------------------------------------------------------------

/// Reference progressive filling: each round rescans every slot for the
/// lowest fill level max(cap, 0) / count (ties to the lowest slot), then
/// freezes every unfrozen flow crossing it, in flow order.
std::vector<double> progressive_fill_oracle(const WaterFillProblem& p) {
  const std::size_t flows = p.flow_begin.size() - 1;
  std::vector<double> slot_cap(p.capacity.begin(), p.capacity.end());
  std::vector<int> slot_count(slot_cap.size(), 0);
  std::vector<std::vector<std::size_t>> flow_slots(flows);
  for (std::size_t fi = 0; fi < flows; ++fi) {
    for (std::uint32_t j = p.flow_begin[fi]; j < p.flow_begin[fi + 1]; ++j) {
      flow_slots[fi].push_back(p.flow_slots[j]);
      ++slot_count[p.flow_slots[j]];
    }
  }
  std::vector<double> fair(flows, 0.0);
  std::vector<char> assigned(flows, 0);
  for (;;) {
    std::size_t best = slot_cap.size();
    double best_fill = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < slot_cap.size(); ++i) {
      if (slot_count[i] <= 0) continue;
      const double fill =
          std::max(slot_cap[i], 0.0) / static_cast<double>(slot_count[i]);
      if (fill < best_fill) {
        best_fill = fill;
        best = i;
      }
    }
    if (best == slot_cap.size()) break;
    for (std::size_t fi = 0; fi < flows; ++fi) {
      if (assigned[fi]) continue;
      const auto& slots = flow_slots[fi];
      if (std::find(slots.begin(), slots.end(), best) == slots.end()) continue;
      assigned[fi] = 1;
      fair[fi] = best_fill;
      for (std::size_t slot : slots) {
        slot_cap[slot] -= best_fill;
        --slot_count[slot];
      }
    }
  }
  return fair;
}

/// A flat incidence under construction.
struct Incidence {
  std::vector<double> capacity;
  std::vector<std::uint32_t> flow_begin{0};
  std::vector<std::uint32_t> flow_slots;

  void add_flow(const std::vector<std::uint32_t>& slots) {
    flow_slots.insert(flow_slots.end(), slots.begin(), slots.end());
    flow_begin.push_back(static_cast<std::uint32_t>(flow_slots.size()));
  }
  [[nodiscard]] WaterFillProblem problem() const {
    return WaterFillProblem{capacity, flow_begin, flow_slots};
  }
};

TEST(WaterFillOracle, HandCheckedTieResolvesToLowestSlot) {
  // Slots 0 and 1 both start at fill 1.0; slot 0 wins the tie and freezes
  // flows 0 and 2, leaving flow 1 alone on slot 1's residual 1.0.
  Incidence inc;
  inc.capacity = {2.0, 2.0};
  inc.add_flow({0});
  inc.add_flow({1});
  inc.add_flow({0, 1});
  inc.add_flow({});  // no live links: rate 0, pacing is the caller's call
  const std::vector<double> oracle = progressive_fill_oracle(inc.problem());
  EXPECT_EQ(oracle, (std::vector<double>{1.0, 1.0, 1.0, 0.0}));
  WaterFill fill;
  std::vector<double> rate;
  fill.solve(inc.problem(), rate);
  EXPECT_EQ(rate, oracle);
}

TEST(WaterFillOracle, RandomizedIncidencesMatchExactly) {
  // Capacities drawn from a small pool so fill levels tie often; the pool
  // includes zero and negative residuals and thirds/tenths whose repeated
  // subtraction leaves residuals a rounding error above or below zero.
  const std::vector<double> pool = {0.0,  -0.5, 1.0,       2.0,  3.0,
                                    12.5, 0.1,  1.0 / 3.0, 25.0, 0.3};
  WaterFill fill;  // one instance: arenas are reused across problems
  std::vector<double> rate;
  std::size_t ties = 0;
  std::size_t nonpositive = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Incidence inc;
    const std::size_t slots = 1 + rng.next_below(24);
    for (std::size_t s = 0; s < slots; ++s) {
      inc.capacity.push_back(pool[rng.next_below(pool.size())]);
    }
    const std::size_t flows = 1 + rng.next_below(40);
    for (std::size_t f = 0; f < flows; ++f) {
      std::vector<std::uint32_t> mine;
      switch (rng.next_below(8)) {
        case 0:  // no live links
          break;
        case 1:
        case 2:  // single-link flow
          mine.push_back(static_cast<std::uint32_t>(rng.next_below(slots)));
          break;
        default: {  // a flow's links are unique and ascending
          const std::size_t want = 2 + rng.next_below(6);
          for (std::size_t k = 0; k < want; ++k) {
            mine.push_back(static_cast<std::uint32_t>(rng.next_below(slots)));
          }
          std::sort(mine.begin(), mine.end());
          mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
        }
      }
      inc.add_flow(mine);
    }
    const std::vector<double> oracle = progressive_fill_oracle(inc.problem());
    fill.solve(inc.problem(), rate);
    ASSERT_EQ(rate.size(), oracle.size());
    for (std::size_t f = 0; f < oracle.size(); ++f) {
      EXPECT_EQ(rate[f], oracle[f]) << "flow " << f;
    }
    std::map<double, int> levels;
    for (const double r : oracle) {
      if (++levels[r] == 2) ++ties;
      if (r <= 0.0) ++nonpositive;
    }
  }
  // The draw really exercised the edge cases it claims to.
  EXPECT_GT(ties, 100u);
  EXPECT_GT(nonpositive, 100u);
}

// --- 2. coalescing ------------------------------------------------------------

/// Dumbbell: sources s_i -- A == B -- receivers r_i. Stream i multicasts
/// s_i -> A -> B -> {r_i, r_i+1}, so every stream shares the A->B core
/// link and each receiver NIC carries two streams. NIC rates vary so the
/// bottlenecks differ per stream.
struct Dumbbell {
  static constexpr int kStreams = 6;
  Topology topo;
  std::vector<NodeId> src, dst;
  std::vector<LinkId> src_up, dst_down;
  NodeId a = kInvalidNode, b = kInvalidNode;
  LinkId core = kInvalidLink;

  Dumbbell() {
    a = topo.add_node(Node{NodeKind::Tor, 0, 0});
    b = topo.add_node(Node{NodeKind::Tor, 1, 0});
    core = topo.add_duplex_link(a, b, GbpsRate{400.0});
    for (int i = 0; i < kStreams; ++i) {
      src.push_back(topo.add_node(Node{NodeKind::Host, 0, i}));
      src_up.push_back(topo.add_duplex_link(src.back(), a,
                                            GbpsRate{25.0 * (1 + i % 3)}, 100,
                                            LinkKind::HostNic));
    }
    for (int i = 0; i <= kStreams; ++i) {
      dst.push_back(topo.add_node(Node{NodeKind::Host, 1, i}));
      dst_down.push_back(topo.add_duplex_link(
          b, dst.back(), GbpsRate{i % 2 == 0 ? 100.0 : 40.0}, 100,
          LinkKind::HostNic));
    }
  }

  [[nodiscard]] StreamSpec spec(int i) const {
    StreamSpec s;
    s.source = src[static_cast<std::size_t>(i)];
    s.forward[s.source] = {src_up[static_cast<std::size_t>(i)]};
    s.forward[a] = {core};
    s.forward[b] = {dst_down[static_cast<std::size_t>(i)],
                    dst_down[static_cast<std::size_t>(i) + 1]};
    s.receivers = {dst[static_cast<std::size_t>(i)],
                   dst[static_cast<std::size_t>(i) + 1]};
    return s;
  }

  /// Per-link rates the oracle gives the first `n` streams, summed over the
  /// first `live` of them (default all) in stream order — the order
  /// FlowNetwork::link_rate adds them in.
  [[nodiscard]] std::map<LinkId, double> oracle_link_rates(
      int n, int live = -1) const {
    if (live < 0) live = n;
    std::vector<std::vector<LinkId>> flow_links;
    std::vector<LinkId> used;
    for (int i = 0; i < n; ++i) {
      std::vector<LinkId> links;
      for (const auto& [node, outs] : spec(i).forward) {
        links.insert(links.end(), outs.begin(), outs.end());
      }
      std::sort(links.begin(), links.end());
      used.insert(used.end(), links.begin(), links.end());
      flow_links.push_back(std::move(links));
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    Incidence inc;
    for (const LinkId l : used) {
      inc.capacity.push_back(topo.link(l).rate.bytes_per_ns());
    }
    for (const auto& links : flow_links) {
      std::vector<std::uint32_t> slots;
      for (const LinkId l : links) {
        slots.push_back(static_cast<std::uint32_t>(
            std::lower_bound(used.begin(), used.end(), l) - used.begin()));
      }
      inc.add_flow(slots);
    }
    const std::vector<double> fair = progressive_fill_oracle(inc.problem());
    std::map<LinkId, double> sums;
    for (std::size_t f = 0; f < static_cast<std::size_t>(live); ++f) {
      for (const LinkId l : flow_links[f]) sums[l] += fair[f];
    }
    return sums;
  }
};

/// Plain max-min (no fitted DCQCN caps), so rates are the oracle's fair
/// shares exactly.
SimConfig uncapped() {
  SimConfig sim;
  sim.congestion_control = false;
  return sim;
}

TEST(FlowSolver, StreamsOpenedAtOneInstantShareOneSolve) {
  const Dumbbell d;
  EventQueue queue;
  FlowNetwork net(d.topo, uncapped(), queue);
  net.set_delivery_handler([](const DeliveryEvent&) {});

  const SimTime t = 10 * kMicrosecond;
  std::map<LinkId, double> mid_instant;
  queue.at(t, [&] {
    for (int i = 0; i < Dumbbell::kStreams; ++i) {
      const StreamId s = net.open_stream(d.spec(i));
      net.send_chunk(s, 0, 4 * kMiB);
    }
    // A reader inside the instant finishes it first: it sees the solved
    // rates, never the half-built component.
    for (const auto& [l, rate] : d.oracle_link_rates(Dumbbell::kStreams)) {
      mid_instant[l] = net.link_rate(l);
    }
  });
  queue.run_until(t);

  EXPECT_EQ(net.solve_requests(), static_cast<std::uint64_t>(Dumbbell::kStreams));
  EXPECT_EQ(net.rate_recomputes(), 1u);
  for (const auto& [l, rate] : d.oracle_link_rates(Dumbbell::kStreams)) {
    EXPECT_EQ(net.link_rate(l), rate) << "link " << l;
    EXPECT_EQ(mid_instant[l], rate) << "link " << l << " read mid-instant";
  }
  EXPECT_GT(net.link_rate(d.core), 0.0);
}

TEST(FlowSolver, DepartureReratesTheSurvivorsInOneSolve) {
  const Dumbbell d;
  EventQueue queue;
  FlowNetwork net(d.topo, uncapped(), queue);
  net.set_delivery_handler([](const DeliveryEvent&) {});

  // Streams 0..4 carry long chunks; the last carries a short one, so its
  // departure is the only change at its completion instant.
  for (int i = 0; i < Dumbbell::kStreams; ++i) {
    const StreamId s = net.open_stream(d.spec(i));
    net.send_chunk(s, 0, i + 1 < Dumbbell::kStreams ? 64 * kMiB : 64 * kKiB);
  }
  queue.run_until(0);
  ASSERT_EQ(net.rate_recomputes(), 1u);
  queue.run_until(100 * kMicrosecond);  // the short chunk is done by now
  EXPECT_EQ(net.rate_recomputes(), 2u);
  for (const auto& [l, rate] : d.oracle_link_rates(Dumbbell::kStreams - 1)) {
    EXPECT_EQ(net.link_rate(l), rate) << "link " << l;
  }
}

// A stream opened and closed within one instant: the solve-after-every-
// change semantics re-rate its neighbours when it opens, and a close leaves
// the flows it shared links with at their rates until their next change.
// The deferred solve must land on the same rates, so the close runs the
// instant's pending solve before the stream leaves the component.
TEST(FlowSolver, OpenAndCloseInOneInstantMatchSolvingAfterEveryChange) {
  const Dumbbell d;
  EventQueue queue;
  FlowNetwork net(d.topo, uncapped(), queue);
  net.set_delivery_handler([](const DeliveryEvent&) {});

  const int n = Dumbbell::kStreams - 1;
  for (int i = 0; i < n; ++i) {
    net.send_chunk(net.open_stream(d.spec(i)), 0, 64 * kMiB);
  }
  queue.at(10 * kMicrosecond, [&] {
    const StreamId late = net.open_stream(d.spec(n));
    net.send_chunk(late, 0, 64 * kMiB);
    net.close_stream(late);
  });
  queue.run_until(10 * kMicrosecond);
  for (const auto& [l, rate] : d.oracle_link_rates(n + 1, n)) {
    EXPECT_EQ(net.link_rate(l), rate) << "link " << l;
  }
}

TEST(FlowSolver, CloseAfterDrainPostsNothing) {
  const Dumbbell d;
  EventQueue queue;
  FlowNetwork net(d.topo, uncapped(), queue);
  int delivered = 0;
  net.set_delivery_handler([&delivered](const DeliveryEvent&) { ++delivered; });

  // Requested outside run(): the solve waits in the queue for run().
  std::vector<StreamId> streams;
  for (int i = 0; i < Dumbbell::kStreams; ++i) {
    streams.push_back(net.open_stream(d.spec(i)));
    net.send_chunk(streams.back(), 0, 256 * kKiB);
  }
  EXPECT_EQ(net.rate_recomputes(), 0u);
  EXPECT_FALSE(queue.empty());
  queue.run();
  EXPECT_EQ(delivered, 2 * Dumbbell::kStreams);

  // After the drain a close touches no rate, so it must leave the queue
  // empty (run_scenario and run_workload read queue.empty() as drained).
  const std::uint64_t solves = net.rate_recomputes();
  for (const StreamId s : streams) net.close_stream(s);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(net.rate_recomputes(), solves);
  for (const StreamId s : streams) {
    EXPECT_EQ(net.stream_diagnostic(s).pending_chunks, 0u);
  }
}

// --- 3. pinned per-collective CCTs -------------------------------------------

std::vector<std::int64_t> cct_ns(const Samples& cct) {
  std::vector<std::int64_t> out;
  for (const double v : cct.values()) out.push_back(std::llround(v * 1e9));
  return out;
}

// Open-loop PEEL jobs with membership churn on a lean k=8 fat-tree, heavily
// overlapped so most solves coalesce several stream changes.
TEST(FlowSolver, ChurnWorkloadReproducesPinnedCcts) {
  FatTreeConfig k8;
  k8.k = 8;
  k8.hosts_per_tor = 1;
  k8.gpus_per_host = 1;
  const FatTree ft = build_fat_tree(k8);
  const Fabric fabric = Fabric::of(ft);

  WorkloadConfig wc;
  wc.scheme = Scheme::Peel;
  wc.collective = CollectiveKind::Broadcast;
  wc.fidelity = Fidelity::Flow;
  wc.arrivals.jobs = 40;
  wc.arrivals.group_sizes = {4, 8, 16};
  wc.arrivals.message_bytes = 512 * kKiB;
  wc.arrivals.iterations = 2;
  wc.arrivals.iteration_gap_seconds = 50e-6;
  wc.arrivals.hold_seconds = 200e-6;
  wc.arrivals.fragmented_share = 0.25;
  wc.arrivals.buddy_share = 0.5;
  wc.arrivals.rate_per_second = 100000.0;
  wc.churn.events_per_job = 1;
  wc.byte_audit = true;
  wc.watchdog = true;
  wc.seed = 4242;

  const WorkloadResult r = run_workload(fabric, wc);
  EXPECT_EQ(r.churn_events, 40u);
  EXPECT_LT(r.sim.flow_solves, r.sim.flow_solve_requests);
  const std::vector<std::int64_t> pinned = {
      95354,   1049900, 198720,  973813,  602530,  798109,  1243946, 548169,
      886848,  811632,  1117930, 1028908, 1000709, 1142994, 1220412, 1202247,
      1219958, 1175237, 696742,  1259606, 1023622, 1250921, 882527,  1251373,
      1165827, 1075725, 1366201, 1286873, 1335213, 842887,  922798,  941644,
      1093778, 1271001, 1415353, 833897,  1349701, 1433540, 830946,  1415304,
      979287,  1086406, 1181054, 1417865, 646735,  1392326, 1080187, 1433830,
      1088446, 1410934, 862801,  1293125, 1415250, 1080290, 1410935, 1060959,
      1292538, 1403097, 832158,  1396702, 1045910, 1393050, 1388582, 1271115,
      1032441, 1385714, 1373650, 1365871, 745446,  1361240, 1000278, 1357010,
      1350104, 1230887, 1345947, 1333662, 1323300, 712175,  1199432, 953058};
  EXPECT_EQ(cct_ns(r.sim.cct_seconds), pinned);
}

// Flapping leaf-spine links under flow fidelity: truncation, recovery
// streams superseded mid-flight, and repairs all land on the solver.
ScenarioConfig flapping_cell(Scheme scheme) {
  ScenarioConfig c;
  c.scheme = scheme;
  c.collective = CollectiveKind::Broadcast;
  c.group_size = 16;
  c.message_bytes = 256 * kKiB;
  c.collectives = 10;
  c.offered_load = 0.5;
  c.fidelity = Fidelity::Flow;
  c.seed = 90210;
  c.byte_audit = true;
  c.watchdog = true;
  c.runner.peel_asymmetric = true;
  c.faults.flap.mtbf_seconds = 60e-6;
  c.faults.flap.mttr_seconds = 25e-6;
  c.faults.flap.links = 12;
  c.faults.flap.horizon_seconds = 400e-6;
  return c;
}

TEST(FlowSolver, FlappingCellsReproducePinnedCcts) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const Fabric fabric = Fabric::of(ls);

  const ScenarioResult peel = run_scenario(fabric, flapping_cell(Scheme::Peel));
  EXPECT_EQ(peel.fault_downs, 66u);
  EXPECT_EQ(peel.recovered_deliveries, 875u);
  EXPECT_EQ(cct_ns(peel.cct_seconds),
            (std::vector<std::int64_t>{75647, 68798, 79202, 186799, 183576,
                                       167455, 87978, 92202, 141311, 81293}));

  const ScenarioResult ring = run_scenario(fabric, flapping_cell(Scheme::Ring));
  EXPECT_EQ(ring.fault_downs, 66u);
  EXPECT_EQ(ring.recovered_deliveries, 3825u);
  EXPECT_EQ(cct_ns(ring.cct_seconds),
            (std::vector<std::int64_t>{169676, 202515, 352246, 300428, 304527,
                                       288227, 274987, 329319, 276408,
                                       291467}));
}

}  // namespace
}  // namespace peel
