#include "src/sim/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace peel {

Network::Network(const Topology& topo, const SimConfig& config, EventQueue& queue)
    : topo_(&topo),
      config_(config),
      queue_(&queue),
      rng_(config.seed ^ 0x5eedf00dULL),
      links_(topo.link_count()),
      nodes_(topo.node_count()),
      blocked_pumps_(topo.node_count()) {
  config_.validate();
  pause_threshold_ = static_cast<Bytes>(
      static_cast<double>(config_.switch_buffer_bytes) *
      (1.0 - config_.pfc_pause_free_fraction));
  resume_threshold_ =
      std::max<Bytes>(0, pause_threshold_ - config_.pfc_hysteresis);
  in_slot_of_link_.assign(topo.link_count(), -1);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const auto& ins = topo.in_links(static_cast<NodeId>(n));
    nodes_[n].per_ingress.assign(ins.size(), 0);
    std::int32_t slot = 0;
    for (LinkId l : ins) in_slot_of_link_[static_cast<std::size_t>(l)] = slot++;
  }
  queue_->bind_sink(this);
  if (config_.telemetry.enabled) {
    telem_ = std::make_unique<Telemetry>(config_.telemetry, topo);
    if (config_.telemetry.sample_interval > 0) {
      sampler_armed_ = true;
      queue_->after(config_.telemetry.sample_interval,
                    SimEvent{SimEventKind::SampleTick});
    }
  }
}

Network::~Network() {
  if (queue_->sink() == this) queue_->bind_sink(nullptr);
}

void Network::on_sim_event(const SimEvent& ev) {
  switch (ev.kind) {
    case SimEventKind::Pump:
      if (streams_[static_cast<std::size_t>(ev.a)].injectors.empty()) {
        pump(ev.a);
      } else {
        pump_reduce(ev.a, ev.b);
      }
      return;
    case SimEventKind::FinishTx:
      finish_tx(ev.a, ev.epoch);
      return;
    case SimEventKind::Arrive:
      arrive(ev.a, Segment{ev.b, ev.c, ev.d, kInvalidLink, ev.e, ev.flag},
             ev.epoch);
      return;
    case SimEventKind::CnpRate: {
      auto& st = streams_[static_cast<std::size_t>(ev.a)];
      if (st.closed) return;
      if (st.injectors.empty()) {
        st.cc.on_cnp(queue_->now());
      } else {
        // Reduce stream: the CNP targets one contributor's injector (ev.b).
        auto& inj = st.injectors[static_cast<std::size_t>(ev.b)];
        if (inj.local) inj.cc.on_cnp(queue_->now());
      }
      return;
    }
    case SimEventKind::ReduceEmit:
      reduce_emit(ev.a, ev.b, ev.c, ev.d, ev.flag);
      return;
    case SimEventKind::SampleTick:
      sample_tick();
      return;
    // Cross-domain PFC frames (sharded engine): the pause decision — and its
    // telemetry — happened on the buffer-owning (mirror) side when the frame
    // was posted; here the link's owning domain applies the state change to
    // the real serializer. The epoch guard drops frames that were in flight
    // when the link failed: the failure already cleared pause state on both
    // sides, and a stale pause must never wedge a repaired link.
    case SimEventKind::PfcPause: {
      auto& L = links_[static_cast<std::size_t>(ev.a)];
      if (L.fail_epoch == ev.epoch) set_paused(ev.a, true);
      return;
    }
    case SimEventKind::PfcResume: {
      auto& L = links_[static_cast<std::size_t>(ev.a)];
      if (L.fail_epoch == ev.epoch && L.pfc_paused) {
        set_paused(ev.a, false);
        if (L.blocked) try_start(ev.a);
      }
      return;
    }
    case SimEventKind::None:
    case SimEventKind::FlowComplete:
    case SimEventKind::FlowDeliver:
    case SimEventKind::FlowSolve:
      break;
  }
  throw std::logic_error("Network: unknown SimEvent kind");
}

void Network::post_pfc(SimEventKind kind, LinkId ingress) {
  if (xhook_ == nullptr) return;
  SimEvent ev;
  ev.kind = kind;
  ev.a = ingress;
  ev.epoch = links_[static_cast<std::size_t>(ingress)].fail_epoch;
  // The frame travels back to the link's sender: one propagation delay,
  // which is >= the shard lookahead for every cross-domain link.
  xhook_->post(queue_->now() + topo_->link(ingress).propagation, ev);
}

void Network::sample_tick() {
  telem_->sample(queue_->now());
  // Only stay alive while the simulation itself has work left; the sampler
  // must never be the event that keeps the queue from draining. send_chunk
  // re-arms it when new work shows up after a lapse.
  if (queue_->pending() > 0) {
    queue_->after(config_.telemetry.sample_interval,
                  SimEvent{SimEventKind::SampleTick});
  } else {
    sampler_armed_ = false;
  }
}

void Network::rearm_sampler() {
  if (telem_ && config_.telemetry.sample_interval > 0 && !sampler_armed_) {
    sampler_armed_ = true;
    queue_->after(config_.telemetry.sample_interval,
                  SimEvent{SimEventKind::SampleTick});
  }
}

StreamDiagnostic Network::stream_diagnostic(StreamId s) const {
  const auto& st = streams_[static_cast<std::size_t>(s)];
  StreamDiagnostic d;
  d.stream = s;
  d.tag = st.tag;
  d.closed = st.closed;
  d.pump_blocked = st.pump_blocked;
  d.pump_scheduled = st.pump_scheduled;
  for (std::size_t i = st.pending_head; i < st.pending.size(); ++i) {
    ++d.pending_chunks;
    d.bytes_pending_injection += st.pending[i].bytes - st.pending[i].injected;
  }
  for (const auto& inj : st.injectors) {
    d.pump_blocked |= inj.pump_blocked;
    d.pump_scheduled |= inj.pump_scheduled;
    for (std::size_t i = inj.pending_head; i < inj.pending.size(); ++i) {
      ++d.pending_chunks;
      d.bytes_pending_injection +=
          inj.pending[i].bytes - inj.pending[i].injected;
    }
  }
  for (const auto& prog : st.progress) {
    for (std::size_t c = 0; c < st.chunk_want.size(); ++c) {
      const Bytes want = st.chunk_want[c];
      if (want <= 0) continue;
      const Bytes got = c < prog.size() ? prog[c] : 0;
      if (got < want) ++d.incomplete_deliveries;
    }
  }
  return d;
}

double Network::source_line_rate(const StreamSpec& spec, NodeId start) const {
  // The rate limiter physically sits at the NIC: walk through any leading
  // NVLink hop(s) and pace against the first fabric-facing link.  Pacing
  // against NVLink itself (900 B/ns) would let a GPU-sourced stream dump the
  // whole message into local buffers before congestion control can act.
  auto it = spec.forward.find(start);
  if (it == spec.forward.end() || it->second.empty()) {
    throw std::invalid_argument("stream source has no out-links");
  }
  NodeId cursor = start;
  for (int depth = 0; depth < 4; ++depth) {
    const auto hop = spec.forward.find(cursor);
    if (hop == spec.forward.end() || hop->second.empty()) break;
    double rate = topo_->link(hop->second.front()).rate.bytes_per_ns();
    bool all_nvlink = true;
    for (LinkId l : hop->second) {
      rate = std::min(rate, topo_->link(l).rate.bytes_per_ns());
      all_nvlink &= topo_->link(l).kind == LinkKind::NvLink;
    }
    if (!all_nvlink || hop->second.size() > 1) return rate;
    cursor = topo_->link(hop->second.front()).dst;
  }
  // Pure-NVLink stream (intra-host delivery): no NIC on the path.
  double rate = topo_->link(it->second.front()).rate.bytes_per_ns();
  for (LinkId l : it->second) {
    rate = std::min(rate, topo_->link(l).rate.bytes_per_ns());
  }
  return rate;
}

Bytes Network::max_queue_peak() const {
  Bytes peak = 0;
  for (const LinkState& l : links_) peak = std::max(peak, l.queue_peak);
  return peak;
}

StreamId Network::open_stream(StreamSpec spec) {
  const auto id = static_cast<StreamId>(streams_.size());
  const std::size_t node_count = topo_->node_count();
  StreamState st;
  st.source = spec.source;
  st.tag = spec.tag;
  st.cnp_mode = spec.cnp_mode;
  const bool reduce = !spec.contributors.empty();
  if (!reduce) {
    // Reduce streams pace per contributor instead; spec.source is the pivot
    // switch where the combined bytes turn around into the down multicast —
    // nothing injects there.
    const double line = source_line_rate(spec, spec.source);
    st.cc =
        Dcqcn(config_.dcqcn, line, spec.cnp_mode, config_.sender_guard_interval);
  }

  // Number the tree slots: every node the forward map names (its keys and
  // their out-links' far ends), ascending. Receivers are deliberately left
  // out — sharded replicas filter them per domain, and they must all agree
  // on the numbering.
  std::vector<NodeId> tree;
  for (const auto& [node, outs] : spec.forward) {
    if (node < 0 || static_cast<std::size_t>(node) >= node_count) {
      throw std::invalid_argument("stream forward map names an unknown node");
    }
    tree.push_back(node);
    for (LinkId l : outs) tree.push_back(topo_->link(l).dst);
  }
  std::sort(tree.begin(), tree.end());
  tree.erase(std::unique(tree.begin(), tree.end()), tree.end());
  const auto slot_of = [&tree](NodeId n) {
    const auto it = std::lower_bound(tree.begin(), tree.end(), n);
    return it != tree.end() && *it == n
               ? static_cast<std::int32_t>(it - tree.begin())
               : std::int32_t{-1};
  };
  // Each node's out-links go into one flat array, in spec order, tagged
  // with their far end's slot. arrive() then replicates with array reads
  // and no hashing.
  st.slots.resize(tree.size());
  for (const auto& [node, outs] : spec.forward) {
    TreeSlot& ts = st.slots[static_cast<std::size_t>(slot_of(node))];
    ts.out_begin = static_cast<std::int32_t>(st.fwd.size());
    for (LinkId l : outs) {
      st.fwd.push_back(OutLink{l, slot_of(topo_->link(l).dst)});
    }
    ts.out_end = static_cast<std::int32_t>(st.fwd.size());
  }
  st.src_slot = slot_of(spec.source);

  // Dense receiver index (deduplicated, first occurrence wins). Receivers
  // off the tree can never be delivered to; they only count (once each).
  std::int32_t reached = 0;
  std::vector<NodeId> off_tree;
  for (NodeId r : spec.receivers) {
    if (r < 0 || static_cast<std::size_t>(r) >= node_count) {
      throw std::invalid_argument("stream receiver list names an unknown node");
    }
    const std::int32_t slot = slot_of(r);
    if (slot < 0) {
      off_tree.push_back(r);
    } else if (st.slots[static_cast<std::size_t>(slot)].recv < 0) {
      st.slots[static_cast<std::size_t>(slot)].recv = reached++;
    }
  }
  std::sort(off_tree.begin(), off_tree.end());
  off_tree.erase(std::unique(off_tree.begin(), off_tree.end()), off_tree.end());
  st.progress.resize(static_cast<std::size_t>(reached) + off_tree.size());
  st.last_cnp.assign(static_cast<std::size_t>(reached), kMinCnp);

  if (reduce) {
    if (!spec.contributor_local.empty() &&
        spec.contributor_local.size() != spec.contributors.size()) {
      throw std::invalid_argument(
          "contributor_local mask must match contributors");
    }
    // The forward map is the down multicast tree; contributions climb the
    // exact mirror of the same links. Invert it once: slot -> the one
    // forward link pointing at it.
    std::vector<LinkId> in_link(st.slots.size(), kInvalidLink);
    for (const OutLink& o : st.fwd) {
      LinkId& in = in_link[static_cast<std::size_t>(o.slot)];
      if (in != kInvalidLink) {
        throw std::invalid_argument("reduce stream forward map is not a tree");
      }
      in = o.link;
    }
    // One paced injector per contributing endpoint, each rate-limited
    // against the first fabric link of its own up-path (the mirror of the
    // down-tree branch that serves it).
    st.injectors.reserve(spec.contributors.size());
    for (std::size_t i = 0; i < spec.contributors.size(); ++i) {
      ReduceInjector inj;
      inj.node = spec.contributors[i];
      inj.local =
          spec.contributor_local.empty() || spec.contributor_local[i] != 0;
      const std::int32_t cs = slot_of(inj.node);
      if (cs < 0 || in_link[static_cast<std::size_t>(cs)] == kInvalidLink) {
        throw std::invalid_argument(
            "reduce contributor is not in the down-tree");
      }
      const TreeSlot& leaf = st.slots[static_cast<std::size_t>(cs)];
      if (leaf.out_begin != leaf.out_end) {
        throw std::invalid_argument(
            "reduce contributor is an interior node of the down-tree; "
            "in-network combining at an injecting endpoint is not modeled");
      }
      inj.up_link = topo_->reverse_of(in_link[static_cast<std::size_t>(cs)]);
      inj.up_slot = slot_of(topo_->link(inj.up_link).dst);
      // The rate limiter physically sits at the NIC: walk through any
      // leading NVLink mirror hop(s) and pace against the first
      // fabric-facing up-link (source_line_rate's reduce twin).
      LinkId pace = inj.up_link;
      for (int depth = 0;
           depth < 4 && topo_->link(pace).kind == LinkKind::NvLink; ++depth) {
        const LinkId up = in_link[static_cast<std::size_t>(
            slot_of(topo_->link(pace).dst))];
        if (up == kInvalidLink) break;  // pure-NVLink path: no NIC to pace at
        pace = topo_->reverse_of(up);
      }
      const double line = topo_->link(pace).rate.bytes_per_ns();
      inj.cc = Dcqcn(config_.dcqcn, line, spec.cnp_mode,
                     config_.sender_guard_interval);
      st.injectors.push_back(std::move(inj));
    }
    // Every interior node of the down-tree is an aggregation point whose
    // fan-in set is link-for-link the mirror of its fan-out: it holds a
    // chunk's bytes until every mirrored child link has delivered them, then
    // forwards the combined frontier up its own mirrored in-link — or, at
    // the pivot (spec.source, the only interior node with no in-link),
    // launches it onto the forward fan-out. Slots ascend by node and child
    // order is canonicalized by sorting, so combiner indices do not depend
    // on the forward map's iteration order.
    bool pivot_seen = false;
    for (std::size_t s = 0; s < st.slots.size(); ++s) {
      TreeSlot& ts = st.slots[s];
      if (ts.out_begin == ts.out_end) continue;
      ReduceCombiner cb;
      cb.node = tree[s];
      for (std::int32_t i = ts.out_begin; i < ts.out_end; ++i) {
        cb.child_links.push_back(
            topo_->reverse_of(st.fwd[static_cast<std::size_t>(i)].link));
      }
      std::sort(cb.child_links.begin(), cb.child_links.end());
      if (in_link[s] != kInvalidLink) {
        cb.up_link = topo_->reverse_of(in_link[s]);
        cb.up_slot = slot_of(topo_->link(cb.up_link).dst);
      } else if (cb.node == spec.source) {
        pivot_seen = true;
      } else {
        throw std::invalid_argument(
            "reduce stream down-tree is rooted away from spec.source");
      }
      ts.combiner = static_cast<std::int32_t>(st.combiners.size());
      st.combiners.push_back(std::move(cb));
    }
    if (!pivot_seen) {
      throw std::invalid_argument(
          "reduce stream source is not an interior node of the forward map");
    }
  }

  streams_.push_back(std::move(st));
  if (telem_) {
    telem_->on_stream_open(id, spec.tag, spec.receivers);
    if (reduce) telem_->on_reduce_open(id, spec.contributors);
  }
  return id;
}

StreamId Network::open_stream_stub() {
  const auto id = static_cast<StreamId>(streams_.size());
  streams_.emplace_back();  // no tables; keeps StreamIds aligned across domains
  return id;
}

void Network::note_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (st.closed) return;
  if (chunk_index < 0) {
    throw std::invalid_argument("chunk index must be non-negative");
  }
  const auto ci = static_cast<std::size_t>(chunk_index);
  if (st.chunk_want.size() <= ci) st.chunk_want.resize(ci + 1, 0);
  st.chunk_want[ci] = bytes;
  if (telem_ && !st.injectors.empty() && bytes > 0) {
    telem_->on_reduce_target(stream, chunk_index, bytes);
  }
}

void Network::send_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (st.closed) throw std::logic_error("send_chunk on closed stream");
  if (bytes <= 0) throw std::invalid_argument("chunk bytes must be positive");
  if (chunk_index < 0) {
    throw std::invalid_argument("chunk index must be non-negative");
  }
  const auto ci = static_cast<std::size_t>(chunk_index);
  if (st.chunk_want.size() <= ci) st.chunk_want.resize(ci + 1, 0);
  st.chunk_want[ci] = bytes;
  if (!st.injectors.empty()) {
    // In-network reduction: every (engine-local) contributor injects its own
    // copy of the chunk; the tree combines them on the way to the root.
    if (telem_) telem_->on_reduce_target(stream, chunk_index, bytes);
    for (std::size_t i = 0; i < st.injectors.size(); ++i) {
      ReduceInjector& inj = st.injectors[i];
      if (!inj.local) continue;
      inj.pending.push_back(PendingChunk{chunk_index, bytes, 0});
      if (!inj.pump_scheduled) {
        inj.pump_scheduled = true;
        queue_->after(0, SimEvent{SimEventKind::Pump, false, stream,
                                  static_cast<std::int32_t>(i)});
      }
    }
  } else {
    st.pending.push_back(PendingChunk{chunk_index, bytes, 0});
    if (!st.pump_scheduled) {
      st.pump_scheduled = true;
      queue_->after(0, SimEvent{SimEventKind::Pump, false, stream});
    }
  }
  // A lapsed telemetry sampler (the event queue momentarily drained at a
  // tick) restarts with the new work instead of staying dead for the rest
  // of the run.
  if (telem_ && config_.telemetry.sample_interval > 0 && !sampler_armed_) {
    sampler_armed_ = true;
    queue_->after(config_.telemetry.sample_interval,
                  SimEvent{SimEventKind::SampleTick});
  }
}

std::vector<int> Network::cancel_unsent_chunks(StreamId stream) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  std::vector<int> cancelled;
  // Keep the chunk currently mid-injection (if any); drop the rest.
  std::size_t keep = st.pending_head;
  if (keep < st.pending.size() && st.pending[keep].injected > 0) ++keep;
  for (std::size_t i = keep; i < st.pending.size(); ++i) {
    cancelled.push_back(st.pending[i].chunk);
    st.chunk_want[static_cast<std::size_t>(st.pending[i].chunk)] = 0;
  }
  st.pending.resize(keep);
  return cancelled;
}

void Network::close_stream(StreamId stream) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  if (telem_ && !st.closed) {
    // Computed before the progress tables are released below.
    telem_->on_stream_close(stream,
                            stream_diagnostic(stream).incomplete_deliveries == 0);
  }
  st.closed = true;
  // Release, don't just clear: fault-heavy runs open one recovery stream per
  // (collective, origin) per pass, and clear() would retain every dead
  // stream's tables for the rest of the run.
  // NB: `v = {}` is initializer-list assignment and keeps capacity, exactly
  // like clear(); swapping with a default-constructed temporary frees it.
  auto release = [](auto& c) { std::decay_t<decltype(c)>{}.swap(c); };
  release(st.slots);
  release(st.fwd);
  release(st.progress);
  release(st.last_cnp);
  release(st.chunk_want);
  release(st.pending);
  release(st.injectors);
  release(st.combiners);
  // Whatever this stream still held in combiner SRAM is discarded with it.
  reduce_held_ -= st.reduce_held;
  st.reduce_held = 0;
  st.pending_head = 0;
}

void Network::on_duplex_failed(LinkId l) {
  for (LinkId dir : {l, topo_->reverse_of(l)}) {
    auto& L = links_[static_cast<std::size_t>(dir)];
    // Kill in-flight traffic even across a later repair: segments carry the
    // epoch their serialization started under, and arrive() drops stale ones.
    ++L.fail_epoch;
    // The segment mid-serialization (if any) is lost on the wire; its
    // arrival event will see the stale epoch and drop it. Everything still
    // queued behind it is lost here.
    std::size_t first_dropped = L.head + (L.busy ? 1 : 0);
    for (std::size_t i = first_dropped; i < L.q.size(); ++i) {
      const Segment& seg = L.q[i];
      L.queued -= seg.bytes;
      release_buffer(topo_->link(dir).src, seg.ingress, seg.bytes);
      ++lost_segments_;
      if (telem_) {
        telem_->on_queue_drop(dir, seg.stream, seg.bytes, L.queued,
                              queue_->now());
      }
    }
    L.q.resize(first_dropped);
    if (!L.busy) {
      L.q.clear();
      L.head = 0;
    }
    L.blocked = false;
    set_paused(dir, false);
  }
}

void Network::on_duplex_restored(LinkId l) {
  ++duplex_repairs_;
  for (LinkId dir : {l, topo_->reverse_of(l)}) {
    auto& L = links_[static_cast<std::size_t>(dir)];
    // on_duplex_failed left the queue truncated and PFC state cleared; a
    // still-busy head belongs to the outage and finish_tx will retire it.
    // New segments start flowing the moment something enqueues.
    if (!L.busy) try_start(dir);
  }
}

void Network::pump(StreamId stream) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  st.pump_scheduled = false;
  if (st.closed) return;

  while (st.pending_head < st.pending.size()) {
    const SimTime now = queue_->now();
    // Backpressure: a paused source (its own egress buffers full, e.g. under
    // PFC from downstream) stops injecting; release_buffer re-arms the pump.
    if (nodes_[static_cast<std::size_t>(st.source)].buffered >
        pause_threshold_) {
      st.pump_blocked = true;
      blocked_pumps_[static_cast<std::size_t>(st.source)].push_back(
          BlockedPump{stream, -1});
      return;
    }
    if (st.pace_next > now) {
      st.pump_scheduled = true;
      queue_->at(st.pace_next, SimEvent{SimEventKind::Pump, false, stream});
      return;
    }
    const double rate = config_.congestion_control
                            ? st.cc.rate(now)
                            : st.cc.line_rate();
    auto& pc = st.pending[st.pending_head];
    const Bytes seg_bytes =
        std::min<Bytes>(config_.segment_bytes, pc.bytes - pc.injected);
    if (telem_) telem_->on_inject(stream, pc.chunk, seg_bytes);
    replicate(st, st.src_slot,
              Segment{stream, pc.chunk, static_cast<std::int32_t>(seg_bytes),
                      kInvalidLink, -1, false});
    pc.injected += seg_bytes;
    if (pc.injected == pc.bytes) {
      ++st.pending_head;
      if (st.pending_head == st.pending.size()) {
        st.pending.clear();
        st.pending_head = 0;
      }
    }
    const double tx_ns = static_cast<double>(seg_bytes) / rate;
    st.pace_next =
        std::max(st.pace_next, now) + static_cast<SimTime>(std::ceil(tx_ns));
  }
}

void Network::pump_reduce(StreamId stream, std::int32_t injector) {
  auto& st = streams_[static_cast<std::size_t>(stream)];
  ReduceInjector& inj = st.injectors[static_cast<std::size_t>(injector)];
  inj.pump_scheduled = false;
  if (st.closed) return;

  while (inj.pending_head < inj.pending.size()) {
    const SimTime now = queue_->now();
    if (nodes_[static_cast<std::size_t>(inj.node)].buffered >
        pause_threshold_) {
      inj.pump_blocked = true;
      blocked_pumps_[static_cast<std::size_t>(inj.node)].push_back(
          BlockedPump{stream, injector});
      return;
    }
    if (inj.pace_next > now) {
      inj.pump_scheduled = true;
      queue_->at(inj.pace_next,
                 SimEvent{SimEventKind::Pump, false, stream, injector});
      return;
    }
    const double rate = config_.congestion_control ? inj.cc.rate(now)
                                                   : inj.cc.line_rate();
    auto& pc = inj.pending[inj.pending_head];
    const Bytes seg_bytes =
        std::min<Bytes>(config_.segment_bytes, pc.bytes - pc.injected);
    const Segment seg{stream, pc.chunk, static_cast<std::int32_t>(seg_bytes),
                      kInvalidLink, inj.up_slot, false};
    if (telem_) {
      telem_->on_inject(stream, pc.chunk, seg_bytes);
      telem_->on_reduce_contribute(stream, inj.node, pc.chunk, seg_bytes);
    }
    enqueue_segment(inj.up_link, seg);
    pc.injected += seg_bytes;
    if (pc.injected == pc.bytes) {
      ++inj.pending_head;
      if (inj.pending_head == inj.pending.size()) {
        inj.pending.clear();
        inj.pending_head = 0;
      }
    }
    const double tx_ns = static_cast<double>(seg_bytes) / rate;
    inj.pace_next =
        std::max(inj.pace_next, now) + static_cast<SimTime>(std::ceil(tx_ns));
  }
}

void Network::replicate(const StreamState& st, std::int32_t slot,
                        Segment seg) {
  const TreeSlot& ts = st.slots[static_cast<std::size_t>(slot)];
  for (std::int32_t i = ts.out_begin; i < ts.out_end; ++i) {
    const OutLink& out = st.fwd[static_cast<std::size_t>(i)];
    seg.slot = out.slot;
    enqueue_segment(out.link, seg);
  }
}

void Network::enqueue_segment(LinkId l, Segment seg) {
  if (topo_->link(l).failed) {
    ++lost_segments_;  // forwarding entry points at a dead port
    if (telem_) telem_->on_ingress_drop(seg.stream, seg.bytes);
    return;
  }
  auto& L = links_[static_cast<std::size_t>(l)];
  auto& N = nodes_[static_cast<std::size_t>(topo_->link(l).src)];

  // RED/ECN marking against the pre-enqueue egress depth. The kmax > kmin
  // guard keeps the step-ECN configuration (kmax == kmin: mark with pmax
  // certainty at the threshold) out of the divide.
  if (!seg.marked && config_.congestion_control) {
    if (L.queued >= config_.ecn_kmax) {
      seg.marked = true;
    } else if (L.queued > config_.ecn_kmin &&
               config_.ecn_kmax > config_.ecn_kmin) {
      const double p = config_.ecn_pmax *
                       static_cast<double>(L.queued - config_.ecn_kmin) /
                       static_cast<double>(config_.ecn_kmax - config_.ecn_kmin);
      if (rng_.next_double() < p) seg.marked = true;
    }
    if (seg.marked) {
      ++marked_segments_;
      if (telem_) telem_->on_ecn_mark(l);
    }
  }

  L.q.push_back(seg);
  L.queued += seg.bytes;
  L.queue_peak = std::max(L.queue_peak, L.queued);
  N.buffered += seg.bytes;
  if (telem_) {
    telem_->on_enqueue(l, seg.stream, seg.bytes, L.queued, queue_->now());
    telem_->on_node_buffer(topo_->link(l).src, N.buffered);
  }
  if (seg.ingress != kInvalidLink) {
    N.per_ingress[static_cast<std::size_t>(
        in_slot_of_link_[static_cast<std::size_t>(seg.ingress)])] += seg.bytes;
    // PFC: when the shared buffer crosses the stop threshold, pause the
    // ingress port that keeps contributing.
    auto& ingress_link = links_[static_cast<std::size_t>(seg.ingress)];
    if (N.buffered > pause_threshold_ && !ingress_link.pfc_paused) {
      set_paused(seg.ingress, true);
      ++pfc_pauses_;
      if (telem_) telem_->on_pause(seg.ingress, queue_->now());
      // Sharded engine: if another domain owns the ingress link's
      // serializer, this flip only touched the local mirror — forward the
      // pause frame to the owner.
      post_pfc(SimEventKind::PfcPause, seg.ingress);
    }
  }
  if (!L.busy) try_start(l);
}

void Network::try_start(LinkId l) {
  auto& L = links_[static_cast<std::size_t>(l)];
  if (L.busy || L.head >= L.q.size()) return;
  const Link& lk = topo_->link(l);
  if (L.pfc_paused) {
    L.blocked = true;  // PFC: downstream asked us to hold off
    return;
  }
  L.blocked = false;
  L.busy = true;
  const Segment& seg = L.q[L.head];
  const SimTime end = queue_->now() + lk.rate.tx_time(seg.bytes);
  // Snapshot the fail epoch at serialization start: a failure at any point
  // before arrival (mid-serialization or mid-propagation) must lose the
  // segment, repair or no repair.
  queue_->at(end, SimEvent{SimEventKind::FinishTx, false, l, 0, 0, 0, 0,
                           L.fail_epoch});
}

void Network::finish_tx(LinkId l, std::uint32_t fail_epoch) {
  auto& L = links_[static_cast<std::size_t>(l)];
  const Link& lk = topo_->link(l);
  const Segment seg = L.q[L.head];
  ++L.head;
  if (L.head == L.q.size() || L.head > 1024) {
    L.q.erase(L.q.begin(), L.q.begin() + static_cast<std::ptrdiff_t>(L.head));
    L.head = 0;
  }
  L.queued -= seg.bytes;
  L.serialized += seg.bytes;
  total_bytes_ += seg.bytes;
  ++segments_serialized_;
  L.busy = false;
  if (telem_) {
    telem_->on_serialized(l, seg.stream, seg.bytes, L.queued, queue_->now());
  }

  release_buffer(lk.src, seg.ingress, seg.bytes);

  post_event(queue_->now() + lk.propagation,
             SimEvent{SimEventKind::Arrive, seg.marked, l, seg.stream,
                      seg.chunk, seg.bytes, seg.slot, fail_epoch});
  try_start(l);
}

void Network::unpause(LinkId l) {
  auto& L = links_[static_cast<std::size_t>(l)];
  if (!L.pfc_paused) return;
  set_paused(l, false);
  if (telem_) telem_->on_unpause(l, queue_->now());
  if (L.blocked) try_start(l);
  post_pfc(SimEventKind::PfcResume, l);
}

void Network::set_paused(LinkId l, bool paused) {
  auto& L = links_[static_cast<std::size_t>(l)];
  if (L.pfc_paused == paused) return;
  L.pfc_paused = paused;
  nodes_[static_cast<std::size_t>(topo_->link(l).dst)].paused_in +=
      paused ? 1 : -1;
}

void Network::release_buffer(NodeId n, LinkId ingress, Bytes bytes) {
  auto& N = nodes_[static_cast<std::size_t>(n)];
  N.buffered -= bytes;
  if (ingress != kInvalidLink) {
    Bytes& held =
        N.per_ingress[static_cast<std::size_t>(
            in_slot_of_link_[static_cast<std::size_t>(ingress)])];
    if (held <= 0) {
      throw std::logic_error("release_buffer: untracked ingress");
    }
    held -= bytes;
    if (held <= 0) {
      // This ingress no longer holds buffer here; resuming it regardless of
      // the total keeps independent directions from deadlocking each other.
      held = 0;
      unpause(ingress);
    }
  }
  if (N.buffered > resume_threshold_) return;
  // unpause() returns at once for an in-link that is not paused.
  if (N.paused_in > 0) {
    for (LinkId in : topo_->in_links(n)) unpause(in);
  }
  // Re-arm source pumps blocked on this node's buffer.
  auto& waiting_here = blocked_pumps_[static_cast<std::size_t>(n)];
  if (!waiting_here.empty()) {
    std::vector<BlockedPump> waiting = std::move(waiting_here);
    waiting_here.clear();
    for (const BlockedPump& bp : waiting) {
      auto& st = streams_[static_cast<std::size_t>(bp.stream)];
      if (bp.injector < 0) {
        st.pump_blocked = false;
        if (!st.pump_scheduled && !st.closed) {
          st.pump_scheduled = true;
          queue_->after(0, SimEvent{SimEventKind::Pump, false, bp.stream});
        }
      } else if (!st.closed) {
        ReduceInjector& inj =
            st.injectors[static_cast<std::size_t>(bp.injector)];
        inj.pump_blocked = false;
        if (!inj.pump_scheduled) {
          inj.pump_scheduled = true;
          queue_->after(
              0, SimEvent{SimEventKind::Pump, false, bp.stream, bp.injector});
        }
      }
    }
  }
}

void Network::arrive(LinkId l, Segment seg, std::uint32_t fail_epoch) {
  if (topo_->link(l).failed ||
      links_[static_cast<std::size_t>(l)].fail_epoch != fail_epoch) {
    // Either the link is down right now, or it died (and was possibly
    // repaired) after this segment started serializing — lost on the wire.
    ++lost_segments_;
    if (telem_) telem_->on_wire_drop(seg.stream, seg.bytes);
    return;
  }
  const NodeId n = topo_->link(l).dst;
  auto& st = streams_[static_cast<std::size_t>(seg.stream)];
  if (st.closed) return;

  // In-network reduction: an arrival at an interior node over one of its
  // mirrored child links is an upstream contribution — absorb into combiner
  // SRAM instead of replicating; reduce_absorb forwards the combined
  // frontier once all expected children have delivered it. An arrival at
  // the same node over its down in-link (never a child: the mirror has no
  // 2-cycles) is the multicast passing through and falls through to the
  // ordinary replicate path.
  const TreeSlot& ts = st.slots[static_cast<std::size_t>(seg.slot)];
  if (ts.combiner >= 0) {
    const auto& kids =
        st.combiners[static_cast<std::size_t>(ts.combiner)].child_links;
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(kids.begin(), kids.end(), l) - kids.begin());
    if (slot < kids.size() && kids[slot] == l) {
      reduce_absorb(seg.stream, ts.combiner, slot, seg);
      return;
    }
  }

  seg.ingress = l;  // buffer occupancy downstream is charged to this port
  replicate(st, seg.slot, seg);

  if (ts.recv >= 0) {
    auto& prog = st.progress[static_cast<std::size_t>(ts.recv)];
    const auto ci = static_cast<std::size_t>(seg.chunk);
    if (prog.size() <= ci) prog.resize(ci + 1, 0);
    Bytes& got = prog[ci];
    got += seg.bytes;
    if (telem_) telem_->on_deliver(seg.stream, n, seg.chunk, seg.bytes);
    if (seg.marked && config_.congestion_control) {
      maybe_cnp(seg.stream, ts.recv, n);
    }
    const Bytes want = ci < st.chunk_want.size() ? st.chunk_want[ci] : 0;
    if (want > 0 && got >= want) {
      if (on_delivery_) {
        on_delivery_(DeliveryEvent{seg.stream, st.tag, n, seg.chunk});
      }
    }
  }
}

void Network::reduce_absorb(StreamId s, std::int32_t combiner,
                            std::size_t slot, const Segment& seg) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  ReduceCombiner& cb = st.combiners[static_cast<std::size_t>(combiner)];
  const auto chunk = static_cast<std::size_t>(seg.chunk);
  if (cb.child_bytes.size() <= chunk) {
    cb.child_bytes.resize(chunk + 1);
    cb.out_progress.resize(chunk + 1, 0);
  }
  auto& row = cb.child_bytes[chunk];
  if (row.empty()) row.assign(cb.child_links.size(), 0);
  row[slot] += seg.bytes;
  st.reduce_held += seg.bytes;
  reduce_held_ += seg.bytes;
  reduce_held_peak_ = std::max(reduce_held_peak_, reduce_held_);
  if (telem_) {
    telem_->on_reduce_absorb(s, cb.child_links[slot], seg.chunk, seg.bytes);
  }

  // A chunk's bytes leave the combiner at the pace of its slowest child;
  // anything a faster sibling is ahead by stays in SRAM.
  Bytes frontier = row[0];
  for (std::size_t i = 1; i < row.size(); ++i) {
    frontier = std::min(frontier, row[i]);
  }
  const Bytes delta = frontier - cb.out_progress[chunk];
  if (delta <= 0) return;
  cb.out_progress[chunk] = frontier;
  const Bytes freed = delta * static_cast<Bytes>(row.size());
  st.reduce_held -= freed;
  reduce_held_ -= freed;
  if (telem_) telem_->on_reduce_emit(s, cb.node, seg.chunk, delta);

  // The combined bytes re-enter the fabric one ALU latency later (ReduceEmit
  // fires on this domain's own queue — the combiner and the serializer it
  // emits on always share a domain).
  queue_->after(config_.reduce_combine_latency,
                SimEvent{SimEventKind::ReduceEmit, seg.marked, s, combiner,
                         seg.chunk, static_cast<std::int32_t>(delta)});
}

void Network::reduce_emit(StreamId s, std::int32_t combiner,
                          std::int32_t chunk, Bytes bytes, bool marked) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  if (st.closed) return;
  const ReduceCombiner& cb =
      st.combiners[static_cast<std::size_t>(combiner)];
  // ingress = kInvalidLink: combined segments come out of combiner SRAM
  // (tracked by the reduce_held gauge), not an ingress queue, so they are
  // deliberately outside per-ingress PFC accounting — pausing the fast
  // children of a slow combiner is exactly the fan-in deadlock the SRAM
  // model exists to avoid.
  const Segment seg{s, chunk, static_cast<std::int32_t>(bytes), kInvalidLink,
                    cb.up_slot, marked};
  if (cb.up_link != kInvalidLink) {
    enqueue_segment(cb.up_link, seg);
    return;
  }
  // Pivot: the fully combined bytes turn around and launch the forward
  // multicast down to every member.
  replicate(st, st.src_slot, seg);
}

void Network::maybe_cnp(StreamId s, std::int32_t recv_idx, NodeId receiver) {
  auto& st = streams_[static_cast<std::size_t>(s)];
  const SimTime now = queue_->now();
  if (st.cnp_mode == CnpMode::ReceiverTimer) {
    SimTime& last = st.last_cnp[static_cast<std::size_t>(recv_idx)];
    // kMinCnp is far enough in the past that a fresh receiver always passes.
    if (now - last < config_.receiver_cnp_interval) return;
    last = now;
  }
  if (telem_) telem_->on_cnp(s, receiver, now);
  if (!st.injectors.empty()) {
    // Reduce stream: one ECN mark at the root fans out into a CNP per
    // contributor — the many-to-one twin of the multicast CNP implosion the
    // guard timer (CnpMode::SenderGuard) coalesces at each injector.
    for (std::size_t i = 0; i < st.injectors.size(); ++i) {
      post_event(now + config_.cnp_delay,
                 SimEvent{SimEventKind::CnpRate, false, s,
                          static_cast<std::int32_t>(i)});
    }
    return;
  }
  post_event(now + config_.cnp_delay, SimEvent{SimEventKind::CnpRate, false, s});
}

}  // namespace peel
