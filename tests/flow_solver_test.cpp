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
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

namespace peel {
namespace {

// --- 1. the oracle ------------------------------------------------------------

/// A flat incidence under construction.
struct Incidence {
  std::vector<double> capacity;
  std::vector<std::uint32_t> flow_begin{0};
  std::vector<std::uint32_t> flow_slots;

  void add_flow(const std::vector<std::uint32_t>& slots) {
    flow_slots.insert(flow_slots.end(), slots.begin(), slots.end());
    flow_begin.push_back(static_cast<std::uint32_t>(flow_slots.size()));
  }
};

/// Reference progressive filling: each round rescans every slot for the
/// lowest fill level max(cap, 0) / count (ties to the lowest slot), then
/// freezes every unfrozen flow crossing it, in flow order.
std::vector<double> progressive_fill_oracle(const Incidence& p) {
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

TEST(FillOracle, HandCheckedTieResolvesToLowestSlot) {
  // Slots 0 and 1 both start at fill 1.0; slot 0 wins the tie and freezes
  // flows 0 and 2, leaving flow 1 alone on slot 1's residual 1.0.
  Incidence inc;
  inc.capacity = {2.0, 2.0};
  inc.add_flow({0});
  inc.add_flow({1});
  inc.add_flow({0, 1});
  inc.add_flow({});  // no live links: rate 0, pacing is the caller's call
  EXPECT_EQ(progressive_fill_oracle(inc),
            (std::vector<double>{1.0, 1.0, 1.0, 0.0}));
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
    const std::vector<double> fair = progressive_fill_oracle(inc);
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

// Solves that fall back to whole-component fills are counted, split by
// cause: flapping links leave stale links behind; a fault-free workload
// whose streams drain before they close leaves none.
TEST(FlowSolver, WholeComponentFillsAreCountedByCause) {
  const LeafSpine ls = build_leaf_spine(LeafSpineConfig{4, 8, 2, 2});
  const ScenarioResult flap = run_scenario(Fabric::of(ls), flapping_cell(Scheme::Peel));
  EXPECT_GT(flap.flow_stale_fills, 0u);
  EXPECT_LE(flap.flow_stale_fills + flap.flow_cascade_fills, flap.flow_solves);

  FatTreeConfig k8;
  k8.k = 8;
  k8.hosts_per_tor = 1;
  k8.gpus_per_host = 1;
  const FatTree ft = build_fat_tree(k8);
  WorkloadConfig wc;
  wc.scheme = Scheme::Peel;
  wc.fidelity = Fidelity::Flow;
  wc.arrivals.jobs = 20;
  wc.arrivals.rate_per_second = 100000.0;
  wc.churn.events_per_job = 1;
  const WorkloadResult clean = run_workload(Fabric::of(ft), wc);
  EXPECT_GT(clean.sim.flow_solves, 0u);
  EXPECT_EQ(clean.sim.flow_stale_fills, 0u);
  EXPECT_LE(clean.sim.flow_cascade_fills, clean.sim.flow_solves);
}

// --- 4. bitwise soak ----------------------------------------------------------

/// Leaf-spine fabric with mixed line rates: two- and three-way shares of the
/// 300G/400G links produce fill levels like 50/3, whose rounding makes a
/// tied link's fill dip below the round before it (a cascade).
struct SoakFabric {
  static constexpr int kLeaves = 4;
  static constexpr int kSpines = 3;
  static constexpr int kHostsPerLeaf = 4;
  Topology topo;
  std::vector<NodeId> leaves, spines, hosts;
  std::vector<LinkId> nic;     ///< per host: host -> leaf
  std::vector<LinkId> uplink;  ///< leaf * kSpines + spine: leaf -> spine

  explicit SoakFabric(Rng& rng) {
    const double fabric_gbps[] = {300.0, 400.0, 400.0, 200.0};
    const double nic_gbps[] = {100.0, 200.0, 400.0};
    for (int s = 0; s < kSpines; ++s) {
      spines.push_back(topo.add_node(Node{NodeKind::Core, -1, s}));
    }
    for (int l = 0; l < kLeaves; ++l) {
      leaves.push_back(topo.add_node(Node{NodeKind::Tor, l, 0}));
      for (int s = 0; s < kSpines; ++s) {
        uplink.push_back(topo.add_duplex_link(
            leaves.back(), spines[static_cast<std::size_t>(s)],
            GbpsRate{fabric_gbps[rng.next_below(4)]}));
      }
      for (int h = 0; h < kHostsPerLeaf; ++h) {
        hosts.push_back(topo.add_node(Node{NodeKind::Host, l, h}));
        nic.push_back(topo.add_duplex_link(hosts.back(), leaves.back(),
                                           GbpsRate{nic_gbps[rng.next_below(3)]},
                                           100, LinkKind::HostNic));
      }
    }
  }

  [[nodiscard]] static int leaf_of(std::size_t host) {
    return static_cast<int>(host) / kHostsPerLeaf;
  }

  /// A multicast tree from a random host through one spine to 1-6 others.
  [[nodiscard]] StreamSpec random_spec(Rng& rng) const {
    StreamSpec spec;
    const std::size_t src = rng.next_below(hosts.size());
    const auto spine = static_cast<std::size_t>(rng.next_below(kSpines));
    std::vector<std::size_t> recv;
    const std::size_t want = 1 + rng.next_below(6);
    while (recv.size() < want) {
      const std::size_t h = rng.next_below(hosts.size());
      if (h != src && std::find(recv.begin(), recv.end(), h) == recv.end()) {
        recv.push_back(h);
      }
    }
    spec.source = hosts[src];
    spec.forward[spec.source] = {nic[src]};
    const auto down = [&](std::size_t h) { return topo.reverse_of(nic[h]); };
    for (const std::size_t h : recv) {
      spec.receivers.push_back(hosts[h]);
      const auto leaf = static_cast<std::size_t>(leaf_of(h));
      if (leaf_of(h) == leaf_of(src)) {
        spec.forward[leaves[leaf]].push_back(down(h));
        continue;
      }
      auto& at_src_leaf =
          spec.forward[leaves[static_cast<std::size_t>(leaf_of(src))]];
      const LinkId up =
          uplink[static_cast<std::size_t>(leaf_of(src)) * kSpines + spine];
      if (std::find(at_src_leaf.begin(), at_src_leaf.end(), up) ==
          at_src_leaf.end()) {
        at_src_leaf.push_back(up);
      }
      auto& at_spine = spec.forward[spines[spine]];
      const LinkId to_leaf = topo.reverse_of(uplink[leaf * kSpines + spine]);
      if (std::find(at_spine.begin(), at_spine.end(), to_leaf) ==
          at_spine.end()) {
        at_spine.push_back(to_leaf);
      }
      spec.forward[leaves[leaf]].push_back(down(h));
    }
    return spec;
  }
};

/// What the soak knows of a stream, independently of the FlowNetwork.
struct SoakStream {
  StreamId id = -1;
  bool reduce = false;
  bool closed = false;
  NodeId source = kInvalidNode;
  std::vector<LinkId> fwd;    ///< compiled forward links, ascending
  std::vector<LinkId> links;  ///< forward plus (reduce) their reverses
  std::vector<char> open_live;  ///< reduce: live set fixed when opened
  std::size_t receivers = 0;
  CnpMode mode = CnpMode::ReceiverTimer;
};

/// Live subset of `st`'s links: a link is live when its wire is up and its
/// upstream end is reachable from the source over live forward links.
std::vector<char> live_links(const Topology& topo, const SoakStream& st) {
  std::vector<NodeId> reached{st.source};
  for (std::size_t i = 0; i < reached.size(); ++i) {
    for (const LinkId l : st.fwd) {
      const Link& lk = topo.link(l);
      if (lk.src == reached[i] && !lk.failed &&
          std::find(reached.begin(), reached.end(), lk.dst) == reached.end()) {
        reached.push_back(lk.dst);
      }
    }
  }
  std::vector<char> live;
  for (const LinkId l : st.links) {
    const Link& lk = topo.link(l);
    const bool mirror =
        st.reduce && !std::binary_search(st.fwd.begin(), st.fwd.end(), l);
    const NodeId upstream = mirror ? lk.dst : lk.src;
    live.push_back(static_cast<char>(
        !lk.failed &&
        std::find(reached.begin(), reached.end(), upstream) != reached.end()));
  }
  return live;
}

/// Drives one FlowNetwork through a seeded random sequence of arrivals,
/// departures (several per instant, open+close in one instant), chunk
/// completions, cancels and duplex failures/repairs (a reduce stream on a
/// failed link freezes). After every solve, every active flow's rate must
/// equal (==) a from-scratch progressive fill over all active flows with
/// the contention cap applied. Flows in a component the network reports
/// stale (a neighbour left it unsolved, see FlowNetwork::stale_links) are
/// skipped until a solve reaches them. Returns the number of flow rates
/// compared.
std::size_t run_soak(std::uint64_t seed, int ops) {
  Rng rng(seed);
  SoakFabric fab(rng);
  EventQueue queue;
  const SimConfig sim;  // congestion control on: the contention cap applies
  FlowNetwork net(fab.topo, sim, queue);
  net.set_delivery_handler([](const DeliveryEvent&) {});
  std::vector<SoakStream> streams;
  std::vector<LinkId> failed;

  const auto open = [&] {
    StreamSpec spec = fab.random_spec(rng);
    SoakStream st;
    st.reduce = rng.next_below(5) == 0;
    if (st.reduce) spec.contributors = spec.receivers;
    spec.cnp_mode = static_cast<CnpMode>(rng.next_below(3));
    st.source = spec.source;
    st.mode = spec.cnp_mode;
    st.receivers = spec.receivers.size();
    for (const auto& [node, outs] : spec.forward) {
      st.fwd.insert(st.fwd.end(), outs.begin(), outs.end());
    }
    std::sort(st.fwd.begin(), st.fwd.end());
    st.links = st.fwd;
    if (st.reduce) {
      for (const LinkId l : st.fwd) st.links.push_back(fab.topo.reverse_of(l));
      std::sort(st.links.begin(), st.links.end());
    }
    st.open_live = live_links(fab.topo, st);
    st.id = net.open_stream(std::move(spec));
    const std::size_t chunks = 1 + rng.next_below(3);
    for (std::size_t c = 0; c < chunks; ++c) {
      net.send_chunk(st.id, static_cast<int>(c),
                     static_cast<Bytes>(16 * kKiB * (1 + rng.next_below(64))));
    }
    streams.push_back(std::move(st));
    return streams.back().id;
  };
  const auto pick_open = [&]() -> SoakStream* {
    std::vector<SoakStream*> live;
    for (SoakStream& st : streams) {
      if (!st.closed) live.push_back(&st);
    }
    return live.empty() ? nullptr : live[rng.next_below(live.size())];
  };
  const auto op = [&] {
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:
        open();
        return;
      case 3: {  // open and close within one instant
        const StreamId s = open();
        net.close_stream(s);
        streams.back().closed = true;
        return;
      }
      case 4:
      case 5:
        if (SoakStream* st = pick_open()) {
          net.close_stream(st->id);
          st->closed = true;
        }
        return;
      case 6:
        if (SoakStream* st = pick_open()) {
          (void)net.cancel_unsent_chunks(st->id);
        }
        return;
      case 7:
        if (SoakStream* st = pick_open()) {
          net.send_chunk(st->id, 99, static_cast<Bytes>(
                                         64 * kKiB * (1 + rng.next_below(8))));
        }
        return;
      case 8:
        if (failed.size() < 2) {
          const LinkId l = fab.uplink[rng.next_below(fab.uplink.size())];
          if (std::find(failed.begin(), failed.end(), l) != failed.end()) return;
          failed.push_back(l);
          fab.topo.fail_duplex(l);
          net.on_duplex_failed(l);
        }
        return;
      default:
        if (!failed.empty()) {
          const std::size_t i = rng.next_below(failed.size());
          const LinkId l = failed[i];
          failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(i));
          fab.topo.restore_duplex(l);
          net.on_duplex_restored(l);
        }
        return;
    }
  };
  SimTime t = 0;
  for (int i = 0; i < ops;) {
    // Several changes often land on one instant.
    const int burst = rng.next_below(3) == 0 ? 2 + static_cast<int>(
                                                       rng.next_below(3))
                                             : 1;
    queue.at(t, [&op, burst] {
      for (int k = 0; k < burst; ++k) op();
    });
    i += burst;
    t += static_cast<SimTime>(rng.next_below(40'000));
  }

  std::size_t compared = 0;
  const auto check = [&] {
    std::vector<const SoakStream*> active;
    std::vector<std::vector<char>> live;
    for (const SoakStream& st : streams) {
      if (st.closed) continue;
      const StreamDiagnostic d = net.stream_diagnostic(st.id);
      if (d.pump_blocked || d.pending_chunks == 0) continue;
      active.push_back(&st);
      // A reduce stream keeps the live set it opened with: a failure on its
      // tree freezes it instead, and a repair never refreshes it.
      live.push_back(st.reduce ? st.open_live : live_links(fab.topo, st));
    }
    // Slots in ascending link id, as the fill breaks ties by link id.
    std::map<LinkId, std::uint32_t> slot;
    std::map<LinkId, int> count;
    for (std::size_t i = 0; i < active.size(); ++i) {
      for (std::size_t j = 0; j < active[i]->links.size(); ++j) {
        if (live[i][j]) ++count[active[i]->links[j]];
      }
    }
    Incidence inc;
    for (const auto& [l, n] : count) {
      slot[l] = static_cast<std::uint32_t>(inc.capacity.size());
      inc.capacity.push_back(fab.topo.link(l).rate.bytes_per_ns());
    }
    // Components over shared live links (union-find on slots).
    std::vector<std::uint32_t> parent(inc.capacity.size());
    for (std::uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&parent](std::uint32_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (std::size_t i = 0; i < active.size(); ++i) {
      std::vector<std::uint32_t> mine;
      for (std::size_t j = 0; j < active[i]->links.size(); ++j) {
        if (live[i][j]) mine.push_back(slot[active[i]->links[j]]);
      }
      for (const std::uint32_t s : mine) parent[find(s)] = find(mine[0]);
      inc.add_flow(mine);
    }
    std::vector<char> stale(parent.size(), 0);
    for (const LinkId l : net.stale_links()) {
      if (slot.contains(l)) stale[find(slot[l])] = 1;
    }
    const std::vector<double> fair = progressive_fill_oracle(inc);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const SoakStream& st = *active[i];
      const std::uint32_t b = inc.flow_begin[i];
      const std::uint32_t e = inc.flow_begin[i + 1];
      if (b != e && stale[find(inc.flow_slots[b])]) continue;
      double want;
      if (b == e) {
        want = 1e6;
        for (const LinkId l : st.links) {
          want = std::min(want, fab.topo.link(l).rate.bytes_per_ns());
        }
      } else {
        want = fair[i];
        bool contended = false;
        for (std::size_t j = 0; j < st.links.size(); ++j) {
          if (live[i][j] && count[st.links[j]] >= 2) contended = true;
        }
        if (contended) {
          switch (st.mode) {
            case CnpMode::SenderGuard:
              want *= sim.flow.guard_utilization;
              break;
            case CnpMode::ReceiverTimer:
              want *= st.receivers > 1
                          ? sim.flow.receiver_timer_multicast_utilization
                          : sim.flow.receiver_timer_unicast_utilization;
              break;
            case CnpMode::Unthrottled:
              want *= sim.flow.unthrottled_utilization;
              break;
          }
        }
      }
      EXPECT_EQ(net.stream_rate(st.id), want)
          << "seed " << seed << " stream " << st.id << " at "
          << queue.now() << " ns";
      ++compared;
    }
  };

  std::uint64_t solves = 0;
  while (queue.step()) {
    if (net.rate_recomputes() == solves) continue;
    solves = net.rate_recomputes();
    check();
    if (::testing::Test::HasFailure()) break;
  }
  return compared;
}

TEST(FlowSolverSoak, IncrementalSolvesMatchFullFill) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    compared += run_soak(seed, 300);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(compared, 10000u);
}

TEST(FlowSolverSoakSlow, IncrementalSolvesMatchFullFill) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1000; seed < 1400; ++seed) {
    compared += run_soak(seed, 1500);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(compared, 100000u);
}

}  // namespace
}  // namespace peel
