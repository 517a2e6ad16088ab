#include "src/collectives/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "src/steiner/layer_peel.h"
#include "src/steiner/tree_repair.h"

namespace peel {

const char* to_string(Scheme s) noexcept {
  switch (s) {
    case Scheme::Ring: return "Ring";
    case Scheme::BinaryTree: return "Tree";
    case Scheme::Optimal: return "Optimal";
    case Scheme::Orca: return "Orca";
    case Scheme::Peel: return "PEEL";
    case Scheme::PeelProgCores: return "PEEL+ProgCores";
    case Scheme::InNet: return "InNet";
  }
  return "?";
}

namespace {

std::uint64_t delivery_key(NodeId receiver, int chunk) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(receiver)) << 24) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(chunk));
}

/// Duplex pairs the parts' trees traverse (their plan-cache footprint).
std::vector<LinkId> part_edges(const std::vector<PeelStream>& parts) {
  std::vector<LinkId> edges;
  for (const PeelStream& part : parts) {
    const std::vector<LinkId> pairs = duplex_edge_pairs(part.tree);
    edges.insert(edges.end(), pairs.begin(), pairs.end());
  }
  return edges;
}

/// Position of `s` in `edges`, streams a scheme opened back to back. Every
/// engine numbers streams consecutively, so the offset from the first edge
/// finds it; the scan only serves a data plane that numbers otherwise.
std::size_t edge_index(std::span<const StreamId> edges, StreamId s) {
  const auto guess = static_cast<std::size_t>(s) -
                     static_cast<std::size_t>(edges.front());
  if (guess < edges.size() && edges[guess] == s) return guess;
  const auto it = std::find(edges.begin(), edges.end(), s);
  if (it == edges.end()) {
    throw std::out_of_range("delivery on a stream outside the scheme's edges");
  }
  return static_cast<std::size_t>(it - edges.begin());
}

}  // namespace

// ---------------------------------------------------------------------------
// Exec base: delivery bookkeeping shared by every scheme.
// ---------------------------------------------------------------------------

struct CollectiveRunner::ExecBase {
  CollectiveRunner* runner = nullptr;
  BroadcastRequest req;
  std::vector<Bytes> chunk_sizes;
  std::vector<StreamId> streams;
  /// Delivery ledger (size_ledger): one flag per chunk id below
  /// `unicast_ids` (each goes to a single receiver), then one per
  /// (receiver, chunk id) for the rest, receivers ranked by ascending id.
  std::vector<NodeId> receivers;
  std::size_t unicast_ids = 0;
  std::size_t chunk_ids = 0;
  std::vector<bool> delivered;
  std::size_t delivered_count = 0;
  /// Streams opened by recovery passes, ascending; their deliveries bypass
  /// the scheme's forwarding hooks (the recovery path covers successors
  /// itself).
  std::vector<StreamId> recovery_streams;
  /// Recovery streams from the latest pass, superseded (closed) by the next
  /// one so repeated passes under flapping never stack duplicate senders.
  std::vector<StreamId> open_recovery;
  std::size_t expected = 0;

  virtual ~ExecBase() = default;
  virtual void start() = 0;
  /// Scheme-specific reaction to a completed (receiver, chunk).
  virtual void on_delivery(const DeliveryEvent& ev) { (void)ev; }

  /// Scheme-owned recovery: runs before the generic origin->receiver pass.
  /// The override removes from `missing` every delivery the generic pass
  /// must not touch (re-sending them itself where possible) and returns the
  /// count it rescheduled; deliveries it removed but could not reschedule
  /// keep the collective's damage mark set, so a later pass retries them.
  virtual std::size_t recover_scheme(std::vector<ExpectedDelivery>& missing) {
    (void)missing;
    return 0;
  }

  /// Every (receiver, chunk) this collective must complete, with the
  /// endpoint holding the bytes. The default is the broadcast shape; multi-
  /// source collectives (allgather / allreduce) override it. Must enumerate
  /// exactly `expected` entries — recovery correctness rests on that.
  [[nodiscard]] virtual std::vector<ExpectedDelivery> expected_deliveries() const {
    std::vector<ExpectedDelivery> out;
    out.reserve(expected);
    for (NodeId receiver : req.destinations) {
      for (std::size_t c = 0; c < chunk_sizes.size(); ++c) {
        out.push_back({receiver, static_cast<int>(c), req.source, chunk_sizes[c]});
      }
    }
    return out;
  }

  [[nodiscard]] DataPlane& net() const { return *runner->net_; }
  [[nodiscard]] EventQueue& queue() const { return *runner->queue_; }
  [[nodiscard]] const Fabric& fabric() const { return runner->fabric_; }
  [[nodiscard]] const RunnerOptions& options() const { return runner->options_; }

  StreamId open(StreamSpec spec) {
    spec.tag = req.id;
    const StreamId s = net().open_stream(std::move(spec));
    streams.push_back(s);
    return s;
  }

  /// Opens an in-network multicast stream over `tree` to `receivers`.
  StreamId open_tree(const MulticastTree& tree, std::span<const NodeId> receivers) {
    StreamSpec spec = spec_from_tree(fabric().topo(), tree, receivers);
    spec.cnp_mode = options().multicast_cnp_mode;
    return open(std::move(spec));
  }

  /// Opens a unicast stream along the ECMP route from -> to (flow hash from
  /// the collective id, `hop` and `salt`). Throws std::runtime_error(`what`)
  /// when the endpoints are disconnected.
  StreamId open_route(NodeId from, NodeId to, std::size_t hop, std::uint64_t salt,
                      const char* what) {
    const Route route = runner->router_.path(
        from, to, ecmp_hash(req.id, static_cast<std::uint64_t>(hop), salt));
    if (route.links.empty()) throw std::runtime_error(what);
    StreamSpec spec = spec_from_route(route);
    spec.cnp_mode = CnpMode::ReceiverTimer;
    return open(std::move(spec));
  }

  /// Opens one stream per PEEL packet class that serves members of
  /// source -> dests (trees chosen by `selector`; failure-shaped greedy
  /// trees when `asymmetric`), handing each to `opened` as it opens.
  /// Throws std::logic_error (`what`) unless the streams partition dests.
  template <typename Opened>
  void open_peel(NodeId source, const std::vector<NodeId>& dests,
                 std::uint64_t selector, bool asymmetric, const char* what,
                 Opened&& opened) {
    std::shared_ptr<const std::vector<PeelStream>> cached;
    std::vector<PeelStream> derived;
    if (asymmetric) {
      cached = runner->asymmetric_trees_for(source, dests);
    } else {
      // The plan is selector-free (cache-friendly across stripes and
      // repeated groups); the tree choice still varies by selector.
      derived = peel_static_trees(fabric(), *runner->peel_plan_for(source, dests),
                                  selector);
    }
    std::size_t covered = 0;
    for (const PeelStream& part : cached ? *cached : derived) {
      covered += part.receivers.size();
      if (part.receivers.empty()) continue;  // purely redundant packet class
      opened(open_tree(part.tree, part.receivers));
    }
    if (covered != dests.size()) throw std::logic_error(what);
  }

  /// One Orca program's host relays: trunk receivers resolve to their
  /// designated host, whose first copy of a chunk feeds its relay streams.
  struct OrcaRelays {
    std::unordered_map<NodeId, NodeId> host_of_endpoint;
    std::unordered_map<NodeId, std::vector<StreamId>> streams_by_host;
    /// (designated host, chunk) pairs already relayed.
    std::unordered_set<std::uint64_t> relayed;
  };

  /// Opens `program`'s trunk, then its relay streams (each extended with
  /// NVLink fan-out to member GPUs); returns the trunk.
  StreamId open_orca(const OrcaProgram& program, OrcaRelays& relays) {
    const Topology& topo = fabric().topo();
    const StreamId trunk_stream = open_tree(program.trunk, program.trunk_receivers);
    for (NodeId e : program.trunk_receivers) {
      relays.host_of_endpoint[e] = topo.kind(e) == NodeKind::Gpu ? topo.host_of(e) : e;
    }
    for (const OrcaProgram::Relay& relay : program.relays) {
      StreamSpec spec = spec_from_route(relay.route);
      const NodeId peer = relay.route.nodes.back();
      spec.receivers.clear();
      for (NodeId e : relay.endpoints) {
        if (e != peer) spec.forward[peer].push_back(topo.find_link(peer, e));
        spec.receivers.push_back(e);
      }
      spec.cnp_mode = CnpMode::ReceiverTimer;
      relays.streams_by_host[relay.designated_host].push_back(open(std::move(spec)));
    }
    return trunk_stream;
  }

  /// Relays a trunk delivery onward, once per (designated host, chunk).
  void relay(OrcaRelays& relays, const DeliveryEvent& ev) {
    const auto host = relays.host_of_endpoint.find(ev.receiver);
    if (host == relays.host_of_endpoint.end()) return;  // relay-delivered endpoint
    const auto streams = relays.streams_by_host.find(host->second);
    if (streams == relays.streams_by_host.end()) return;
    if (!relays.relayed.insert(delivery_key(host->second, ev.chunk)).second) return;
    for (StreamId s : streams->second) {
      net().send_chunk(s, ev.chunk, chunk_sizes[static_cast<std::size_t>(ev.chunk)]);
    }
  }

  /// Schedules `fn` against this exec, skipping it if the collective has
  /// already completed (the exec is destroyed on completion, so a raw `this`
  /// capture would dangle).
  void schedule(SimTime delay, void (*fn)(ExecBase&)) {
    CollectiveRunner* r = runner;
    const std::uint64_t id = req.id;
    queue().after(delay, [r, id, fn] {
      const auto it = r->execs_.find(id);
      if (it != r->execs_.end()) fn(*it->second);
    });
  }

  void send_all_chunks(StreamId s) {
    for (std::size_t c = 0; c < chunk_sizes.size(); ++c) {
      net().send_chunk(s, static_cast<int>(c), chunk_sizes[c]);
    }
  }

  /// Sizes the ledger for deliveries to `members` of chunk ids below
  /// `ids` — every (receiver, chunk) the collective can complete. Ids below
  /// `unicast` each have one possible receiver, so they take one flag each.
  void size_ledger(std::span<const NodeId> members, std::size_t ids,
                   std::size_t unicast = 0) {
    receivers.assign(members.begin(), members.end());
    std::sort(receivers.begin(), receivers.end());
    receivers.erase(std::unique(receivers.begin(), receivers.end()),
                    receivers.end());
    unicast_ids = unicast;
    chunk_ids = ids;
    delivered.assign(unicast_ids + receivers.size() * (chunk_ids - unicast_ids),
                     false);
  }

  [[nodiscard]] std::size_t ledger_slot(NodeId receiver, int chunk) const {
    const auto it = std::lower_bound(receivers.begin(), receivers.end(), receiver);
    if (it == receivers.end() || *it != receiver || chunk < 0 ||
        static_cast<std::size_t>(chunk) >= chunk_ids) {
      throw std::logic_error("delivery outside the collective's ledger");
    }
    const auto c = static_cast<std::size_t>(chunk);
    if (c < unicast_ids) return c;
    return unicast_ids +
           static_cast<std::size_t>(it - receivers.begin()) * (chunk_ids - unicast_ids) +
           (c - unicast_ids);
  }

  [[nodiscard]] bool has_delivered(NodeId receiver, int chunk) const {
    return delivered[ledger_slot(receiver, chunk)];
  }

  void mark_recovery(StreamId s) {
    recovery_streams.insert(
        std::upper_bound(recovery_streams.begin(), recovery_streams.end(), s), s);
  }

  /// Returns true when the collective just completed.
  bool handle(const DeliveryEvent& ev) {
    const std::size_t slot = ledger_slot(ev.receiver, ev.chunk);
    if (delivered[slot]) return false;  // duplicate (e.g. redundant copy)
    delivered[slot] = true;
    ++delivered_count;
    if (!std::binary_search(recovery_streams.begin(), recovery_streams.end(),
                            ev.stream)) {
      on_delivery(ev);
    }
    return delivered_count == expected;
  }
};

// ---------------------------------------------------------------------------
// Ring: locality-ordered chain; each endpoint forwards a chunk on receipt.
// ---------------------------------------------------------------------------

struct CollectiveRunner::RingExec : ExecBase {
  std::vector<NodeId> order;
  /// The ring's own edges, in hop order. Never index the shared `streams`
  /// list positionally: recovery passes append their streams to it, which
  /// would silently turn "last hop, no successor" into "forward onto a
  /// recovery stream".
  std::vector<StreamId> edge_streams;

  void start() override {
    order.reserve(req.destinations.size() + 1);
    order.push_back(req.source);
    order.insert(order.end(), req.destinations.begin(), req.destinations.end());
    std::sort(order.begin() + 1, order.end());

    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      edge_streams.push_back(open_route(order[i], order[i + 1], i, 0x7269'6e67ULL,
                                        "ring: endpoints disconnected"));
    }
    send_all_chunks(edge_streams.front());
  }

  void on_delivery(const DeliveryEvent& ev) override {
    const std::size_t hop = edge_index(edge_streams, ev.stream);
    if (hop + 1 < edge_streams.size()) {
      net().send_chunk(edge_streams[hop + 1], ev.chunk,
                       chunk_sizes[static_cast<std::size_t>(ev.chunk)]);
    }
  }
};

// ---------------------------------------------------------------------------
// Binary tree: rank r forwards each chunk to ranks 2r+1 and 2r+2.
// ---------------------------------------------------------------------------

struct CollectiveRunner::BinaryTreeExec : ExecBase {
  std::vector<NodeId> order;
  /// edge_streams[r] = stream carrying parent(r) -> r, for r >= 1.
  std::vector<StreamId> edge_streams;

  void start() override {
    order.push_back(req.source);
    order.insert(order.end(), req.destinations.begin(), req.destinations.end());
    std::sort(order.begin() + 1, order.end());

    edge_streams.assign(order.size(), -1);
    for (std::size_t r = 1; r < order.size(); ++r) {
      edge_streams[r] = open_route(order[(r - 1) / 2], order[r], r, 0x7472'6565ULL,
                                   "binary tree: endpoints disconnected");
    }
    for (std::size_t child : {std::size_t{1}, std::size_t{2}}) {
      if (child < order.size()) send_all_chunks(edge_streams[child]);
    }
  }

  void on_delivery(const DeliveryEvent& ev) override {
    const std::size_t r =
        1 + edge_index(std::span(edge_streams).subspan(1), ev.stream);
    for (std::size_t child : {2 * r + 1, 2 * r + 2}) {
      if (child < order.size()) {
        net().send_chunk(edge_streams[child], ev.chunk,
                         chunk_sizes[static_cast<std::size_t>(ev.chunk)]);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// In-network multicast: Optimal (one tree) and PEEL (one tree per prefix
// packet). All chunks are queued up-front; switches replicate.
// ---------------------------------------------------------------------------

struct CollectiveRunner::MulticastExec : ExecBase {
  Scheme scheme = Scheme::Optimal;

  void start() override {
    // Striping (§2.3's multicast-vs-multipath question): chunks round-robin
    // over several trees that differ in their core/aggregation choice.
    // Asymmetric greedy trees are failure-shaped and not striped.
    const int stripes = options().peel_asymmetric
                            ? 1
                            : std::max(1, options().stripe_trees);
    for (int t = 0; t < stripes; ++t) {
      const std::vector<StreamId> stripe = open_stripe(t);
      for (std::size_t c = 0; c < chunk_sizes.size(); ++c) {
        if (static_cast<int>(c % static_cast<std::size_t>(stripes)) != t) continue;
        for (StreamId s : stripe) {
          net().send_chunk(s, static_cast<int>(c), chunk_sizes[c]);
        }
      }
    }
  }

  /// Opens the streams of one stripe and checks they partition the group.
  std::vector<StreamId> open_stripe(int t) {
    const std::uint64_t selector = req.id * 1000003ULL + static_cast<std::uint64_t>(t);
    std::vector<StreamId> stripe;
    if (scheme == Scheme::Optimal) {
      stripe.push_back(open_tree(
          optimal_tree(fabric(), req.source, req.destinations, selector),
          req.destinations));
    } else {
      open_peel(req.source, req.destinations, selector, options().peel_asymmetric,
                "multicast streams do not partition the group",
                [&](StreamId s) { stripe.push_back(s); });
    }
    return stripe;
  }
};

// ---------------------------------------------------------------------------
// Orca: controller setup delay, then trunk multicast to designated hosts and
// per-rack host relays.
// ---------------------------------------------------------------------------

struct CollectiveRunner::OrcaExec : ExecBase {
  SimTime setup_delay = 0;
  OrcaRelays relays;

  void start() override {
    schedule(setup_delay,
             [](ExecBase& e) { static_cast<OrcaExec&>(e).launch(); });
  }

  void launch() {
    const OrcaProgram program = orca_program(fabric(), runner->router_, req.source,
                                             req.destinations, req.id);
    send_all_chunks(open_orca(program, relays));
  }

  void on_delivery(const DeliveryEvent& ev) override { relay(relays, ev); }
};

// ---------------------------------------------------------------------------
// PEEL + programmable cores: static prefixes launch immediately; once the
// controller finishes (setup delay), chunks not yet injected migrate onto the
// exact tree and cross the fabric as a single copy (§3.3).
// ---------------------------------------------------------------------------

struct CollectiveRunner::PeelProgCoresExec : ExecBase {
  SimTime setup_delay = 0;
  std::vector<StreamId> static_streams;

  void start() override {
    open_peel(req.source, req.destinations, req.id, /*asymmetric=*/false,
              "PEEL streams do not partition the group", [&](StreamId s) {
                static_streams.push_back(s);
                send_all_chunks(s);
              });
    if (static_streams.size() > 1) {
      schedule(setup_delay,
               [](ExecBase& e) { static_cast<PeelProgCoresExec&>(e).refine(); });
    }
  }

  void refine() {
    // Chunks cancelled on *every* static stream migrate to the exact tree;
    // chunks already in flight somewhere are re-queued where they were.
    std::unordered_map<int, std::size_t> cancel_counts;
    std::vector<std::vector<int>> cancelled(static_streams.size());
    for (std::size_t i = 0; i < static_streams.size(); ++i) {
      cancelled[i] = net().cancel_unsent_chunks(static_streams[i]);
      for (int c : cancelled[i]) ++cancel_counts[c];
    }
    std::unordered_set<int> migrate;
    for (const auto& [chunk, count] : cancel_counts) {
      if (count == static_streams.size()) migrate.insert(chunk);
    }
    for (std::size_t i = 0; i < static_streams.size(); ++i) {
      for (int c : cancelled[i]) {
        if (!migrate.contains(c)) {
          net().send_chunk(static_streams[i], c,
                           chunk_sizes[static_cast<std::size_t>(c)]);
        }
      }
    }
    if (migrate.empty()) return;

    const StreamId refined = open_tree(
        optimal_tree(fabric(), req.source, req.destinations, req.id), req.destinations);
    std::vector<int> ordered(migrate.begin(), migrate.end());
    std::sort(ordered.begin(), ordered.end());
    for (int c : ordered) {
      net().send_chunk(refined, c, chunk_sizes[static_cast<std::size_t>(c)]);
    }
  }
};

// ---------------------------------------------------------------------------
// Ring AllGather: shards rotate around a closed ring; shard s stops at the
// rank just before its origin. Bandwidth-optimal among unicast schedules.
// ---------------------------------------------------------------------------

struct CollectiveRunner::RingAllGatherExec : ExecBase {
  std::vector<NodeId> order;  ///< ring order (locality-sorted members)
  std::vector<StreamId> edge; ///< edge[r]: order[r] -> order[(r+1)%N]

  void start() override {
    const std::size_t n = order.size();
    for (std::size_t r = 0; r < n; ++r) {
      edge.push_back(open_route(order[r], order[(r + 1) % n], r, 0xa11'6a74ULL,
                                "allgather ring: endpoints disconnected"));
    }
    // Every rank launches its own shard simultaneously.
    for (std::size_t r = 0; r < n; ++r) {
      net().send_chunk(edge[r], static_cast<int>(r), chunk_sizes[r]);
    }
  }

  void on_delivery(const DeliveryEvent& ev) override {
    const std::size_t n = order.size();
    const std::size_t receiver_rank = (edge_index(edge, ev.stream) + 1) % n;
    const auto shard = static_cast<std::size_t>(ev.chunk);
    // Forward unless this rank is the last stop (the shard's predecessor).
    if (receiver_rank != (shard + n - 1) % n) {
      net().send_chunk(edge[receiver_rank], ev.chunk, chunk_sizes[shard]);
    }
  }

  [[nodiscard]] std::vector<ExpectedDelivery> expected_deliveries() const override {
    // Shard s originates at rank s and must reach every other rank.
    std::vector<ExpectedDelivery> out;
    out.reserve(expected);
    const std::size_t n = order.size();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t r = 0; r < n; ++r) {
        if (r == s) continue;
        out.push_back({order[r], static_cast<int>(s), order[s], chunk_sizes[s]});
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Multicast AllGather: one in-network multicast per member shard (Optimal /
// PEEL trees; Orca adds its controller delay and host relays).
// ---------------------------------------------------------------------------

struct CollectiveRunner::MulticastAllGatherExec : ExecBase {
  Scheme scheme = Scheme::Optimal;
  SimTime setup_delay = 0;
  std::vector<NodeId> members;

  std::vector<OrcaRelays> orca_shards;  ///< Orca relays, per shard rank

  void start() override {
    if (scheme == Scheme::Orca) {
      schedule(setup_delay, [](ExecBase& e) {
        static_cast<MulticastAllGatherExec&>(e).launch();
      });
    } else {
      launch();
    }
  }

  void launch() {
    orca_shards.resize(members.size());
    for (std::size_t r = 0; r < members.size(); ++r) {
      const NodeId source = members[r];
      std::vector<NodeId> dests;
      dests.reserve(members.size() - 1);
      for (NodeId m : members) {
        if (m != source) dests.push_back(m);
      }
      const auto chunk = static_cast<int>(r);
      const Bytes shard = chunk_sizes[r];
      const std::uint64_t selector = req.id * 7919ULL + r;

      if (scheme == Scheme::Orca) {
        const OrcaProgram program =
            orca_program(fabric(), runner->router_, source, dests, selector);
        net().send_chunk(open_orca(program, orca_shards[r]), chunk, shard);
        continue;
      }

      if (scheme == Scheme::Optimal) {
        net().send_chunk(
            open_tree(optimal_tree(fabric(), source, dests, selector), dests), chunk,
            shard);
        continue;
      }

      // PEEL (PeelProgCores runs its static plan; per-shard refinement would
      // migrate at most one chunk and is omitted).
      open_peel(source, dests, selector, options().peel_asymmetric,
                "allgather PEEL streams do not partition",
                [&](StreamId s) { net().send_chunk(s, chunk, shard); });
    }
  }

  void on_delivery(const DeliveryEvent& ev) override {
    if (scheme == Scheme::Orca) {
      relay(orca_shards[static_cast<std::size_t>(ev.chunk)], ev);
    }
  }

  [[nodiscard]] std::vector<ExpectedDelivery> expected_deliveries() const override {
    std::vector<ExpectedDelivery> out;
    out.reserve(expected);
    const std::size_t n = members.size();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t r = 0; r < n; ++r) {
        if (r == s) continue;
        out.push_back({members[r], static_cast<int>(s), members[s], chunk_sizes[s]});
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Ring AllReduce: reduce-scatter then all-gather around the same ring.
// Chunk ids: shard s in the reduce phase is `s`, in the gather phase `s + n`.
// ---------------------------------------------------------------------------

struct CollectiveRunner::RingAllReduceExec : ExecBase {
  std::vector<NodeId> order;
  std::vector<StreamId> edge;  ///< edge[r]: order[r] -> order[(r+1)%n]

  void start() override {
    const std::size_t n = order.size();
    for (std::size_t r = 0; r < n; ++r) {
      edge.push_back(open_route(order[r], order[(r + 1) % n], r, 0xa11'5edULL,
                                "allreduce ring: endpoints disconnected"));
    }
    // Reduce-scatter: every rank launches its own shard.
    for (std::size_t r = 0; r < n; ++r) {
      net().send_chunk(edge[r], static_cast<int>(r), chunk_sizes[r]);
    }
  }

  void on_delivery(const DeliveryEvent& ev) override {
    const std::size_t n = order.size();
    const std::size_t rank = (edge_index(edge, ev.stream) + 1) % n;
    const auto cid = static_cast<std::size_t>(ev.chunk);
    if (cid < n) {
      // Reduce phase: combine locally (free) and pass on; the last combiner
      // flips the shard into the gather phase.
      const std::size_t shard = cid;
      if (rank != (shard + n - 1) % n) {
        net().send_chunk(edge[rank], ev.chunk, chunk_sizes[shard]);
      } else {
        net().send_chunk(edge[rank], static_cast<int>(shard + n),
                         chunk_sizes[shard]);
      }
    } else {
      // Gather phase: reduced shard `cid - n` circulates to everyone.
      const std::size_t shard = cid - n;
      // It started at rank (shard+n-1)%n; it stops one before that.
      if (rank != (shard + n - 2) % n) {
        net().send_chunk(edge[rank], ev.chunk, chunk_sizes[shard]);
      }
    }
  }

  [[nodiscard]] std::vector<ExpectedDelivery> expected_deliveries() const override {
    // Reduce chunk s visits every rank but s (its owner re-sends on
    // recovery); gather chunk s+n carries the reduced shard, first held by
    // the last combiner (s+n-1)%n, and visits everyone else. A recovery
    // delivery skips the forwarding hook, but any deliveries the broken
    // chain therefore never produced are in the missing set themselves.
    std::vector<ExpectedDelivery> out;
    out.reserve(expected);
    const std::size_t n = order.size();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t r = 0; r < n; ++r) {
        if (r != s) {
          out.push_back({order[r], static_cast<int>(s), order[s], chunk_sizes[s]});
        }
        const std::size_t combiner = (s + n - 1) % n;
        if (r != combiner) {
          out.push_back({order[r], static_cast<int>(s + n), order[combiner],
                         chunk_sizes[s]});
        }
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Tree-reduce + multicast-broadcast AllReduce: gradients combine up a binary
// rank tree (host-side reduction), then the root broadcasts the result via
// the scheme's machinery — the phase PEEL accelerates.
//
// Chunk id spaces (all unique so delivery keys never collide):
//   reduce:    c * n + child_rank      (per reduce edge)
//   broadcast: chunks * n + c
// ---------------------------------------------------------------------------

struct CollectiveRunner::TreeReduceBroadcastExec : ExecBase {
  Scheme scheme = Scheme::Optimal;
  std::vector<NodeId> order;      ///< rank 0 = root
  std::vector<Bytes> piece_bytes; ///< the pipelined pieces of the buffer

  std::vector<StreamId> up_stream_of_rank;  ///< child rank -> stream to parent
  /// missing child contributions per (rank, piece).
  std::vector<std::vector<int>> missing;

  // Broadcast side.
  std::vector<StreamId> down_streams;               // multicast schemes
  std::vector<StreamId> down_edge_of_rank;          // BinaryTree scheme

  [[nodiscard]] std::size_t n() const { return order.size(); }
  [[nodiscard]] int pieces() const { return static_cast<int>(piece_bytes.size()); }

  [[nodiscard]] int reduce_cid(int piece, std::size_t child_rank) const {
    return piece * static_cast<int>(n()) + static_cast<int>(child_rank);
  }
  [[nodiscard]] int broadcast_cid(int piece) const {
    return pieces() * static_cast<int>(n()) + piece;
  }

  void start() override {
    const std::size_t count = n();
    // Reduce edges: rank r -> parent (r-1)/2, for r >= 1.
    up_stream_of_rank.assign(count, -1);
    missing.assign(count, std::vector<int>(static_cast<std::size_t>(pieces()), 0));
    for (std::size_t r = 0; r < count; ++r) {
      int kids = 0;
      if (2 * r + 1 < count) ++kids;
      if (2 * r + 2 < count) ++kids;
      for (auto& m : missing[r]) m = kids;
    }
    for (std::size_t r = 1; r < count; ++r) {
      up_stream_of_rank[r] = open_route(order[r], order[(r - 1) / 2], r, 0x5edcefULL,
                                        "allreduce tree: endpoints disconnected");
    }

    // Broadcast machinery from the root.
    const NodeId root = order[0];
    std::vector<NodeId> others(order.begin() + 1, order.end());
    if (scheme == Scheme::BinaryTree) {
      down_edge_of_rank.assign(count, -1);
      for (std::size_t r = 1; r < count; ++r) {
        down_edge_of_rank[r] = open_route(order[(r - 1) / 2], order[r], r,
                                          0xb0a'dca57ULL,
                                          "allreduce tree: endpoints disconnected");
      }
    } else if (scheme == Scheme::Optimal) {
      down_streams.push_back(
          open_tree(optimal_tree(fabric(), root, others, req.id), others));
    } else {  // Peel / PeelProgCores
      open_peel(root, others, req.id, options().peel_asymmetric,
                "allreduce PEEL streams do not partition",
                [&](StreamId s) { down_streams.push_back(s); });
    }

    // Leaves start pushing every piece up immediately.
    for (std::size_t r = 1; r < count; ++r) {
      if (2 * r + 1 >= count) {  // no children
        for (int c = 0; c < pieces(); ++c) {
          net().send_chunk(up_stream_of_rank[r], reduce_cid(c, r),
                           piece_bytes[static_cast<std::size_t>(c)]);
        }
      }
    }
    // Degenerate group where the root has everything locally: n == 1 is
    // rejected at submit; with n == 2..3 the leaves above cover it.
  }

  void broadcast_piece(int piece) {
    const Bytes bytes = piece_bytes[static_cast<std::size_t>(piece)];
    if (scheme == Scheme::BinaryTree) {
      for (std::size_t child : {std::size_t{1}, std::size_t{2}}) {
        if (child < n()) {
          net().send_chunk(down_edge_of_rank[child], broadcast_cid(piece), bytes);
        }
      }
    } else {
      for (StreamId s : down_streams) {
        net().send_chunk(s, broadcast_cid(piece), bytes);
      }
    }
  }

  void on_delivery(const DeliveryEvent& ev) override {
    const int base = pieces() * static_cast<int>(n());
    if (ev.chunk >= base) {
      // Broadcast phase.
      if (scheme == Scheme::BinaryTree) {
        const std::size_t r =
            1 + edge_index(std::span(down_edge_of_rank).subspan(1), ev.stream);
        for (std::size_t child : {2 * r + 1, 2 * r + 2}) {
          if (child < n()) {
            net().send_chunk(down_edge_of_rank[child], ev.chunk,
                             piece_bytes[static_cast<std::size_t>(ev.chunk - base)]);
          }
        }
      }
      return;
    }
    // Reduce phase: a child's contribution for piece c arrived at its parent.
    const std::size_t child =
        1 + edge_index(std::span(up_stream_of_rank).subspan(1), ev.stream);
    const std::size_t parent = (child - 1) / 2;
    const auto piece = static_cast<std::size_t>(ev.chunk) / n();
    auto& left = missing[parent][piece];
    if (--left > 0) return;
    // Parent now holds the combined piece.
    if (parent == 0) {
      broadcast_piece(static_cast<int>(piece));
    } else {
      net().send_chunk(up_stream_of_rank[parent],
                       reduce_cid(static_cast<int>(piece), parent),
                       piece_bytes[piece]);
    }
  }

  [[nodiscard]] std::vector<ExpectedDelivery> expected_deliveries() const override {
    // Reduce edge: child rank r owes its parent one contribution per piece.
    // Broadcast: the root owes every other rank each reduced piece (modeled
    // as re-sendable by the root — byte-accurate, as everywhere else the
    // simulation carries sizes, not values).
    std::vector<ExpectedDelivery> out;
    out.reserve(expected);
    const std::size_t count = n();
    for (int c = 0; c < pieces(); ++c) {
      const Bytes bytes = piece_bytes[static_cast<std::size_t>(c)];
      for (std::size_t r = 1; r < count; ++r) {
        out.push_back({order[(r - 1) / 2], reduce_cid(c, r), order[r], bytes});
      }
      for (std::size_t r = 1; r < count; ++r) {
        out.push_back({order[r], broadcast_cid(c), order[0], bytes});
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// In-network AllReduce: the PEEL prefix parts fuse into ONE stream
// (innet_fused_spec) whose forward map is the merged member-serving
// multicast tree rerooted at the pivot — the first fan-out switch above the
// initiating rank. Every member paces its contribution up the exact mirror
// of its down-tree branch, switches combine child segments in SRAM
// (src/sim/network.cpp reduce path), and the pivot's fully combined bytes
// turn around into the ordinary prefix multicast down the same tree. Each
// fabric link is crossed once up and once down, and every member's NIC
// carries exactly 1× the buffer each way — less than Ring's 2(n-1)/n.
//
// Chunk ids are the piece indices directly: the reduce and broadcast halves
// are one stream, so there is no second id space to keep disjoint.
// ---------------------------------------------------------------------------

struct CollectiveRunner::InNetAllReduceExec : ExecBase {
  std::vector<NodeId> order;       ///< sorted members; order[0] roots the plan
  std::vector<Bytes> piece_bytes;  ///< the pipelined pieces of the buffer
  StreamId fused = -1;             ///< the single up+down reduce stream

  [[nodiscard]] int pieces() const { return static_cast<int>(piece_bytes.size()); }

  /// The fused stream over one live layer-peel tree to every member; throws
  /// when some member is unreachable over live links.
  [[nodiscard]] StreamSpec live_fused_spec() const {
    const std::vector<NodeId> others(order.begin() + 1, order.end());
    const PeelStream whole{*runner->recovery_tree_for(order[0], others), others};
    return innet_fused_spec(fabric().topo(), std::span{&whole, 1}, order[0], order);
  }

  void start() override {
    const NodeId root = order[0];
    const std::vector<NodeId> others(order.begin() + 1, order.end());
    StreamSpec spec;
    try {
      const std::shared_ptr<const std::vector<PeelStream>> plan =
          runner->reduce_plan_for(root, others);
      std::size_t covered = 0;
      for (const auto& part : *plan) covered += part.receivers.size();
      if (covered != others.size()) {
        throw std::runtime_error("in-network reduce parts do not partition");
      }
      spec = innet_fused_spec(fabric().topo(), *plan, root, order);
    } catch (const std::exception&) {
      // Mid-outage submission: the static prefix expansion crossed a dead
      // link, or a surgically repaired part pruned a member-serving branch
      // (part trees carry no destination list, so repair_tree is free to
      // drop them). Fuse one live layer-peel tree instead — the same
      // fallback recover_scheme uses. If a member is genuinely unreachable
      // this rethrows, exactly like every host-side scheme's router path.
      spec = live_fused_spec();
    }
    spec.cnp_mode = options().multicast_cnp_mode;
    fused = open(std::move(spec));
    for (int c = 0; c < pieces(); ++c) {
      net().send_chunk(fused, c, piece_bytes[static_cast<std::size_t>(c)]);
    }
  }

  [[nodiscard]] std::vector<ExpectedDelivery> expected_deliveries() const override {
    // Every member (the initiator included — the reversed trunk makes it an
    // ordinary leaf of the down-tree) is owed every combined piece. Origin
    // is the initiator only nominally: no single endpoint holds
    // switch-combined bytes, so recover_scheme re-runs the reduction.
    std::vector<ExpectedDelivery> out;
    out.reserve(expected);
    for (int c = 0; c < pieces(); ++c) {
      const Bytes bytes = piece_bytes[static_cast<std::size_t>(c)];
      for (NodeId m : order) out.push_back({m, c, order[0], bytes});
    }
    return out;
  }

  std::size_t recover_scheme(std::vector<ExpectedDelivery>& missing) override {
    // Claim everything: the generic pass cannot re-send switch-combined
    // bytes (no endpoint holds them), and a partially combined piece cannot
    // be patched per receiver — the whole reduction re-runs over a fresh
    // tree on live links. If some member is unreachable right now nothing
    // is rescheduled, which keeps the damage mark set so a later pass
    // (after repair) retries.
    if (missing.empty()) return 0;
    std::vector<int> redo;
    for (const ExpectedDelivery& d : missing) redo.push_back(d.chunk);
    std::sort(redo.begin(), redo.end());
    redo.erase(std::unique(redo.begin(), redo.end()), redo.end());

    StreamSpec spec;
    try {
      spec = live_fused_spec();
    } catch (const std::exception&) {
      return 0;  // some member unreachable: a later pass retries
    }
    spec.cnp_mode = options().multicast_cnp_mode;
    // Supersede the damaged stream: its in-flight contributions drop with
    // it (the byte audit treats closed streams as superseded) and the
    // fresh stream's ledger restarts the exactly-once accounting from
    // zero — contributions can neither drop nor double-count across the
    // repair.
    const std::size_t rescheduled = missing.size();
    missing.clear();
    net().close_stream(fused);
    const StreamId s = open(std::move(spec));
    // Deliberately NOT in recovery_streams: member deliveries must still
    // fire so the collective can finish.
    open_recovery.push_back(s);
    fused = s;
    for (int cid : redo) {
      net().send_chunk(s, cid, piece_bytes[static_cast<std::size_t>(cid)]);
    }
    return rescheduled;
  }
};

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

CollectiveRunner::CollectiveRunner(Fabric fabric, DataPlane& net,
                                   EventQueue& queue, Rng rng,
                                   RunnerOptions options)
    : fabric_(fabric),
      net_(&net),
      queue_(&queue),
      rng_(rng),
      options_(options),
      router_(fabric.topo()) {
  net_->set_delivery_handler(
      [this](const DeliveryEvent& ev) { handle_delivery(ev); });
}

CollectiveRunner::~CollectiveRunner() { net_->set_delivery_handler({}); }

void CollectiveRunner::submit(Scheme scheme, BroadcastRequest request) {
  if (request.destinations.empty() || request.message_bytes <= 0) {
    throw std::invalid_argument("broadcast needs destinations and a payload");
  }
  if (execs_.contains(request.id)) {
    throw std::invalid_argument("duplicate collective id");
  }

  std::unique_ptr<ExecBase> exec;
  SimTime setup = 0;
  const bool pays_controller =
      scheme == Scheme::Orca || scheme == Scheme::PeelProgCores;
  if (pays_controller && options_.controller_delay_enabled) {
    setup = static_cast<SimTime>(rng_.normal_truncated(
        static_cast<double>(options_.controller_mean),
        static_cast<double>(options_.controller_stddev), 0.0));
  }

  switch (scheme) {
    case Scheme::Ring: exec = std::make_unique<RingExec>(); break;
    case Scheme::BinaryTree: exec = std::make_unique<BinaryTreeExec>(); break;
    case Scheme::Optimal:
    case Scheme::Peel: {
      auto m = std::make_unique<MulticastExec>();
      m->scheme = scheme;
      exec = std::move(m);
      break;
    }
    case Scheme::Orca: {
      auto o = std::make_unique<OrcaExec>();
      o->setup_delay = setup;
      exec = std::move(o);
      break;
    }
    case Scheme::PeelProgCores: {
      auto p = std::make_unique<PeelProgCoresExec>();
      p->setup_delay = setup;
      exec = std::move(p);
      break;
    }
    case Scheme::InNet:
      throw std::invalid_argument(
          "broadcast does not support InNet (no reduction phase to offload); "
          "use Peel for the multicast itself");
  }

  exec->runner = this;
  exec->req = std::move(request);
  exec->chunk_sizes = split_chunks(exec->req.message_bytes, options_.chunks);
  exec->expected = exec->req.destinations.size() * exec->chunk_sizes.size();
  exec->size_ledger(exec->req.destinations, exec->chunk_sizes.size());
  const std::size_t group = exec->req.destinations.size();
  const Bytes bytes = exec->req.message_bytes;
  register_exec(std::move(exec), scheme, setup, bytes, group);
}

void CollectiveRunner::submit_allgather(Scheme scheme, AllGatherRequest request) {
  if (request.members.size() < 2 || request.total_bytes <= 0) {
    throw std::invalid_argument("allgather needs >= 2 members and a payload");
  }
  if (scheme == Scheme::BinaryTree) {
    throw std::invalid_argument("AllGather does not support BinaryTree");
  }
  if (scheme == Scheme::InNet) {
    throw std::invalid_argument(
        "AllGather does not support InNet (nothing to reduce; every shard is "
        "already a plain multicast)");
  }
  if (execs_.contains(request.id)) {
    throw std::invalid_argument("duplicate collective id");
  }

  std::vector<NodeId> members = request.members;
  std::sort(members.begin(), members.end());
  const std::size_t n = members.size();

  SimTime setup = 0;
  if (scheme == Scheme::Orca && options_.controller_delay_enabled) {
    setup = static_cast<SimTime>(rng_.normal_truncated(
        static_cast<double>(options_.controller_mean),
        static_cast<double>(options_.controller_stddev), 0.0));
  }

  std::unique_ptr<ExecBase> exec;
  if (scheme == Scheme::Ring) {
    auto ring = std::make_unique<RingAllGatherExec>();
    ring->order = members;
    exec = std::move(ring);
  } else {
    auto mc = std::make_unique<MulticastAllGatherExec>();
    mc->scheme = scheme;
    mc->setup_delay = setup;
    mc->members = members;
    exec = std::move(mc);
  }

  exec->runner = this;
  exec->req.id = request.id;
  exec->req.job = request.job;
  exec->req.message_bytes = request.total_bytes;
  // One chunk per member shard; every member receives the n-1 other shards.
  if (request.total_bytes < static_cast<Bytes>(n)) {
    throw std::invalid_argument("allgather shards need at least one byte each");
  }
  exec->chunk_sizes = split_chunks(request.total_bytes, static_cast<int>(n));
  exec->expected = n * (n - 1);
  exec->size_ledger(members, n);
  register_exec(std::move(exec), scheme, setup, request.total_bytes, n);
}

void CollectiveRunner::submit_allreduce(Scheme scheme, AllReduceRequest request) {
  if (request.members.size() < 2 || request.buffer_bytes <= 0) {
    throw std::invalid_argument("allreduce needs >= 2 members and a payload");
  }
  if (scheme == Scheme::Orca) {
    throw std::invalid_argument(
        "AllReduce does not support Orca (its host-relay model has no "
        "reduction phase); use Optimal with controller_delay instead");
  }
  if (execs_.contains(request.id)) {
    throw std::invalid_argument("duplicate collective id");
  }

  std::vector<NodeId> members = request.members;
  std::sort(members.begin(), members.end());
  const std::size_t n = members.size();

  std::unique_ptr<ExecBase> exec;
  std::size_t expected = 0;
  std::size_t chunk_ids = 0;    ///< delivery chunk ids are below this
  std::size_t unicast_ids = 0;  ///< ids below this have a single receiver
  std::vector<Bytes> chunk_sizes;
  if (scheme == Scheme::Ring) {
    if (request.buffer_bytes < static_cast<Bytes>(n)) {
      throw std::invalid_argument("allreduce shards need at least one byte each");
    }
    auto ring = std::make_unique<RingAllReduceExec>();
    ring->order = members;
    chunk_sizes = split_chunks(request.buffer_bytes, static_cast<int>(n));
    expected = 2 * n * (n - 1);
    chunk_ids = 2 * n;  // reduce shards, then gather shards
    exec = std::move(ring);
  } else if (scheme == Scheme::InNet) {
    auto innet = std::make_unique<InNetAllReduceExec>();
    innet->order = members;
    innet->piece_bytes = split_chunks(request.buffer_bytes, options_.chunks);
    chunk_sizes = innet->piece_bytes;
    // Every member receives every combined piece off the fused stream's
    // down multicast — the initiator included.
    expected = n * innet->piece_bytes.size();
    chunk_ids = innet->piece_bytes.size();
    exec = std::move(innet);
  } else {
    auto tree = std::make_unique<TreeReduceBroadcastExec>();
    tree->scheme = scheme;
    tree->order = members;
    tree->piece_bytes = split_chunks(request.buffer_bytes, options_.chunks);
    chunk_sizes = tree->piece_bytes;
    expected = 2 * (n - 1) * tree->piece_bytes.size();
    // Reduce ids (piece, child rank) go to the child's parent only; then
    // one broadcast id per piece.
    unicast_ids = tree->piece_bytes.size() * n;
    chunk_ids = unicast_ids + tree->piece_bytes.size();
    exec = std::move(tree);
  }

  exec->runner = this;
  exec->req.id = request.id;
  exec->req.job = request.job;
  exec->req.message_bytes = request.buffer_bytes;
  exec->chunk_sizes = std::move(chunk_sizes);
  exec->expected = expected;
  exec->size_ledger(members, chunk_ids, unicast_ids);
  register_exec(std::move(exec), scheme, 0, request.buffer_bytes, n);
}

std::shared_ptr<const PeelPlan> CollectiveRunner::peel_plan_for(
    NodeId source, const std::vector<NodeId>& dests) {
  const auto build = [&] {
    return fabric_.fat_tree
               ? build_peel_plan(*fabric_.fat_tree, source, dests,
                                 options_.peel_cover)
               : build_peel_plan(*fabric_.leaf_spine, source, dests,
                                 options_.peel_cover);
  };
  if (!options_.plan_cache) return std::make_shared<const PeelPlan>(build());
  // build_peel_plan never reads the failure set (symmetric prefix cover), so
  // the entry carries no edges and survives every topology delta.
  return plan_cache_.get_or_build<PeelPlan>(PlanKind::PeelPlan, source, dests,
                                            options_.peel_cover, build);
}

std::shared_ptr<const std::vector<PeelStream>> CollectiveRunner::reduce_plan_for(
    NodeId root, const std::vector<NodeId>& dests) {
  const auto build = [&] {
    // Selector 0: the reduce plan must be deterministic per (root, group) so
    // repeated collectives share one cached artifact — stripe variety buys
    // nothing here, the mirror is fixed by the forward cover anyway.
    return peel_static_trees(fabric_, *peel_plan_for(root, dests), 0);
  };
  if (!options_.plan_cache) {
    return std::make_shared<const std::vector<PeelStream>>(build());
  }
  return plan_cache_.get_or_build<std::vector<PeelStream>>(
      PlanKind::ReducePlan, root, dests, options_.peel_cover, build,
      part_edges);
}

std::shared_ptr<const std::vector<PeelStream>>
CollectiveRunner::asymmetric_trees_for(NodeId source,
                                       const std::vector<NodeId>& dests) {
  if (!fabric_.leaf_spine) {
    throw std::runtime_error("asymmetric PEEL requires a leaf-spine fabric");
  }
  const auto build = [&] {
    return peel_asymmetric_trees(*fabric_.leaf_spine, source, dests);
  };
  if (!options_.plan_cache) {
    return std::make_shared<const std::vector<PeelStream>>(build());
  }
  // Asymmetric trees ignore the cover policy; a fixed cover keeps keys from
  // splitting on an input the builder never reads.
  return plan_cache_.get_or_build<std::vector<PeelStream>>(
      PlanKind::PeelAsymmetric, source, dests, PeelCoverOptions{}, build,
      part_edges);
}

std::shared_ptr<const MulticastTree> CollectiveRunner::recovery_tree_for(
    NodeId origin, const std::vector<NodeId>& receivers) {
  const auto build = [&] {
    return layer_peel_tree(fabric_.topo(), origin, receivers);
  };
  if (!options_.plan_cache) {
    return std::make_shared<const MulticastTree>(build());
  }
  return plan_cache_.get_or_build<MulticastTree>(
      PlanKind::RecoveryTree, origin, receivers, PeelCoverOptions{}, build,
      [](const MulticastTree& tree) { return duplex_edge_pairs(tree); });
}

PlanRepair CollectiveRunner::repair_cached_plan(
    PlanKind kind, const std::shared_ptr<const void>& value) const {
  try {
    switch (kind) {
      case PlanKind::RecoveryTree: {
        const auto& tree = *std::static_pointer_cast<const MulticastTree>(value);
        TreeRepairResult repaired = repair_tree(fabric_.topo(), tree);
        auto fixed =
            std::make_shared<const MulticastTree>(std::move(repaired.tree));
        return PlanRepair{fixed, duplex_edge_pairs(*fixed)};
      }
      case PlanKind::PeelAsymmetric:
      case PlanKind::ReducePlan: {
        // Both store forward-orientation PeelStream parts (ReducePlan parts
        // are mirrored only at spec-build time), so one repair serves both.
        const auto& streams =
            *std::static_pointer_cast<const std::vector<PeelStream>>(value);
        std::vector<PeelStream> fixed;
        fixed.reserve(streams.size());
        for (const PeelStream& s : streams) {
          TreeRepairResult repaired = repair_tree(fabric_.topo(), s.tree);
          fixed.push_back(PeelStream{std::move(repaired.tree), s.receivers});
        }
        std::vector<LinkId> edges = part_edges(fixed);
        return PlanRepair{
            std::make_shared<const std::vector<PeelStream>>(std::move(fixed)),
            std::move(edges)};
      }
      case PlanKind::PeelPlan:
        // Edge-free entries are never delta-indexed; nothing to repair.
        break;
    }
  } catch (const std::exception&) {
    // Some orphaned destination is unreachable right now: evict; a later
    // lookup (after repair) rebuilds from scratch.
  }
  return PlanRepair{};
}

void CollectiveRunner::on_topology_delta(const TopologyDelta& delta) {
  const auto apply_start = std::chrono::steady_clock::now();
  const PlanCacheStats cache_before = plan_cache_.stats();
  router_.on_topology_delta(delta);
  // Mark the collectives this outage actually hit: only a stream forwarding
  // over a failed pair can lose deliveries (the Network drops its queued and
  // in-flight segments via the fail epoch), so recover_all can skip every
  // other collective instead of re-sending traffic that is merely in
  // flight. Up transitions lose nothing and mark nothing.
  for (const LinkId pair : delta.down_pairs) {
    const LinkId rev = fabric_.topo().reverse_of(pair);
    for (const auto& [id, exec] : execs_) {
      if (damaged_execs_.contains(id)) continue;
      for (const StreamId s : exec->streams) {
        if (net_->stream_uses_link(s, pair) || net_->stream_uses_link(s, rev)) {
          damaged_execs_.insert(id);
          break;
        }
      }
    }
  }
  if (options_.plan_cache) {
    plan_cache_.apply_delta(
        delta, [this](PlanKind kind, NodeId /*source*/,
                      const std::vector<NodeId>& /*dests*/,
                      const std::shared_ptr<const void>& value) {
          return repair_cached_plan(kind, value);
        });
  }
  const PlanCacheStats cache_after = plan_cache_.stats();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - apply_start)
                        .count();
  ++delta_stats_.deltas;
  delta_stats_.total_us += us;
  delta_stats_.max_us = std::max(delta_stats_.max_us, us);
  delta_stats_.plans_repaired += cache_after.repairs - cache_before.repairs;
  delta_stats_.plans_evicted +=
      cache_after.invalidations - cache_before.invalidations;
}

std::size_t CollectiveRunner::recover_broadcast(std::uint64_t id) {
  const auto it = execs_.find(id);
  if (it == execs_.end() || it->second->req.destinations.empty()) return 0;
  return recover_collective(id);
}

bool CollectiveRunner::recover_group_multicast(
    ExecBase& exec, NodeId origin,
    const std::map<NodeId, std::vector<const ExpectedDelivery*>>& by_receiver) {
  std::vector<NodeId> receivers;
  receivers.reserve(by_receiver.size());
  for (const auto& [receiver, chunks] : by_receiver) receivers.push_back(receiver);
  std::shared_ptr<const MulticastTree> tree;
  try {
    tree = recovery_tree_for(origin, receivers);
  } catch (const std::exception&) {
    return false;  // some receiver unreachable over live links right now
  }
  const StreamId s = exec.open_tree(*tree, receivers);
  exec.mark_recovery(s);
  exec.open_recovery.push_back(s);
  // One copy of each missing chunk serves the whole group; receivers that
  // already hold a chunk get a duplicate the delivery ledger ignores.
  std::map<int, Bytes> chunks;
  for (const auto& [receiver, missing] : by_receiver) {
    for (const ExpectedDelivery* d : missing) chunks[d->chunk] = d->bytes;
  }
  for (const auto& [chunk, bytes] : chunks) net_->send_chunk(s, chunk, bytes);
  return true;
}

std::size_t CollectiveRunner::recover_collective(std::uint64_t id) {
  const auto it = execs_.find(id);
  if (it == execs_.end()) return 0;
  ExecBase& exec = *it->second;

  std::vector<ExpectedDelivery> missing;
  for (const ExpectedDelivery& d : exec.expected_deliveries()) {
    if (!exec.has_delivered(d.receiver, d.chunk)) {
      missing.push_back(d);
    }
  }

  // Supersede the previous pass: whatever it still had in flight is
  // re-enumerated above, and closing keeps repeated passes (one per flap)
  // from stacking duplicate senders. In-flight segments of a closed stream
  // drop silently; the byte audit treats such streams as superseded.
  for (StreamId s : exec.open_recovery) net_->close_stream(s);
  exec.open_recovery.clear();

  if (missing.empty()) {
    damaged_execs_.erase(id);
    return 0;
  }

  // Scheme-owned recovery first: an exec whose deliveries cannot be re-sent
  // by any single endpoint (e.g. InNet's switch-combined reduce pieces)
  // claims them out of `missing` and re-schedules them itself.
  const std::size_t total = missing.size();
  std::size_t rescheduled = exec.recover_scheme(missing);

  // Deterministic grouping: origins and receivers in ascending id order.
  std::map<NodeId, std::map<NodeId, std::vector<const ExpectedDelivery*>>> groups;
  for (const ExpectedDelivery& d : missing) {
    groups[d.origin][d.receiver].push_back(&d);
  }

  for (const auto& [origin, by_receiver] : groups) {
    if (options_.recovery_trees && by_receiver.size() >= 2 &&
        recover_group_multicast(exec, origin, by_receiver)) {
      for (const auto& [receiver, chunks] : by_receiver) {
        rescheduled += chunks.size();
      }
      continue;
    }
    for (const auto& [receiver, chunks] : by_receiver) {
      const Route route = router_.path(
          origin, receiver,
          ecmp_hash(id, static_cast<std::uint64_t>(receiver), 0x2eC0'7e2ULL));
      if (route.links.empty()) continue;  // unreachable: a later pass retries
      StreamSpec spec = spec_from_route(route);
      spec.cnp_mode = CnpMode::ReceiverTimer;
      const StreamId s = exec.open(std::move(spec));
      exec.mark_recovery(s);
      exec.open_recovery.push_back(s);
      for (const ExpectedDelivery* d : chunks) {
        net_->send_chunk(s, d->chunk, d->bytes);
        ++rescheduled;
      }
    }
  }
  // Full coverage clears the damage mark; a partial pass (some receiver
  // unreachable over live links) keeps it, so the next recover_all — e.g.
  // after a link-up delta — retries the remainder.
  if (rescheduled == total) damaged_execs_.erase(id);
  return rescheduled;
}

std::size_t CollectiveRunner::recover_all() {
  std::vector<std::uint64_t> ids;
  ids.reserve(damaged_execs_.size());
  for (const std::uint64_t id : damaged_execs_) {
    if (execs_.contains(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::size_t rescheduled = 0;
  for (std::uint64_t id : ids) rescheduled += recover_collective(id);
  return rescheduled;
}

void CollectiveRunner::register_exec(std::unique_ptr<ExecBase> exec, Scheme scheme,
                                     SimTime setup_delay, Bytes message_bytes,
                                     std::size_t group_size) {
  CollectiveRecord record;
  record.id = exec->req.id;
  record.job = exec->req.job;
  record.scheme = scheme;
  record.submit_time = queue_->now();
  record.setup_delay = setup_delay;
  record.message_bytes = message_bytes;
  record.group_size = group_size;
  record_index_[record.id] = records_.size();
  records_.push_back(record);

  auto [it, inserted] = execs_.emplace(record.id, std::move(exec));
  it->second->start();
}

void CollectiveRunner::handle_delivery(const DeliveryEvent& ev) {
  const auto it = execs_.find(ev.tag);
  if (it == execs_.end()) return;  // stray delivery after completion
  if (it->second->handle(ev)) finish_exec(ev.tag);
}

void CollectiveRunner::finish_exec(std::uint64_t id) {
  const auto it = execs_.find(id);
  auto& record = records_[record_index_.at(id)];
  record.finished = true;
  record.finish_time = queue_->now();
  for (StreamId s : it->second->streams) net_->close_stream(s);
  execs_.erase(it);
  damaged_execs_.erase(id);
  // The handler may submit follow-up collectives, which re-enter
  // register_exec and can reallocate records_ — hand it a copy.
  if (finish_handler_) {
    const CollectiveRecord copy = record;
    finish_handler_(copy);
  }
}

std::vector<StuckFlowInfo> CollectiveRunner::stuck_flows() const {
  std::vector<StuckFlowInfo> out;
  out.reserve(execs_.size());
  for (const auto& [id, exec] : execs_) {
    const CollectiveRecord& record = records_[record_index_.at(id)];
    StuckFlowInfo info;
    info.id = id;
    info.scheme = record.scheme;
    info.submit_time = record.submit_time;
    info.delivered = exec->delivered_count;
    info.expected = exec->expected;
    info.ledger_flags = exec->delivered.size();
    info.streams.reserve(exec->streams.size());
    for (StreamId s : exec->streams) {
      info.streams.push_back(net_->stream_diagnostic(s));
    }
    out.push_back(std::move(info));
  }
  // execs_ iteration order is unspecified; sort for deterministic reports.
  std::sort(out.begin(), out.end(),
            [](const StuckFlowInfo& a, const StuckFlowInfo& b) {
              return a.id < b.id;
            });
  return out;
}

std::string format_stuck_flows(const std::vector<StuckFlowInfo>& flows) {
  std::string out;
  char buf[256];
  for (const StuckFlowInfo& f : flows) {
    std::snprintf(buf, sizeof buf,
                  "  collective %llu (%s, submitted t=%lld ns): %zu/%zu "
                  "deliveries done\n",
                  static_cast<unsigned long long>(f.id), to_string(f.scheme),
                  static_cast<long long>(f.submit_time), f.delivered,
                  f.expected);
    out += buf;
    for (const StreamDiagnostic& d : f.streams) {
      if (d.closed) continue;  // finished streams carry no signal
      std::snprintf(
          buf, sizeof buf,
          "    stream %d: %zu incomplete deliveries, %zu chunks (%lld bytes) "
          "not yet injected%s%s\n",
          d.stream, d.incomplete_deliveries, d.pending_chunks,
          static_cast<long long>(d.bytes_pending_injection),
          d.pump_blocked ? ", pump BLOCKED on full source buffer" : "",
          d.pump_scheduled ? ", pump scheduled" : "");
      out += buf;
    }
  }
  return out;
}

void enforce_all_finished(const CollectiveRunner& runner,
                          const std::string& context) {
  std::vector<StuckFlowInfo> flows = runner.stuck_flows();
  if (flows.empty()) return;
  std::string what = "stuck-flow watchdog: " + context + " with " +
                     std::to_string(flows.size()) +
                     " unfinished collective(s)\n" + format_stuck_flows(flows);
  throw StuckFlowError(std::move(what), std::move(flows));
}

}  // namespace peel
