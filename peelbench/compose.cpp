#include "compose.h"

#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/collectives/runner.h"
#include "src/faults/injector.h"
#include "src/routing/topology_events.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/workload/churn.h"

namespace peelbench {

namespace {

using peel::DataPlane;
using peel::EventQueue;
using peel::SimEventSink;

// --- engines ----------------------------------------------------------------
// One shape for the three engines the harness selects between.

struct PacketEngine {
  EventQueue queue;
  peel::Network net;

  PacketEngine(const peel::Topology& topo, const peel::SimConfig& sim)
      : net(topo, sim, queue) {}
  EventQueue& control() { return queue; }
  DataPlane& data() { return net; }
  SimEventSink* sink() { return &net; }
  void run() { queue.run(); }
  [[nodiscard]] bool empty() const { return queue.empty(); }
  const peel::Telemetry* telemetry() const { return net.telemetry(); }
  void harvest(Outcome& out) const {
    out.events = queue.processed();
    out.segments = net.segments_serialized();
    out.segments_lost = net.segments_lost();
    out.ecn_marks = net.segments_marked();
    out.pfc_pauses = net.pfc_pauses();
  }
};

struct FlowEngine {
  EventQueue queue;
  peel::FlowNetwork net;

  FlowEngine(const peel::Topology& topo, const peel::SimConfig& sim)
      : net(topo, sim, queue) {}
  EventQueue& control() { return queue; }
  DataPlane& data() { return net; }
  SimEventSink* sink() { return nullptr; }  // completions are queue closures
  void run() { queue.run(); }
  [[nodiscard]] bool empty() const { return queue.empty(); }
  const peel::Telemetry* telemetry() const { return net.telemetry(); }
  void harvest(Outcome& out) const {
    out.events = queue.processed();
    out.segments = net.segments_serialized();
    out.segments_lost = net.segments_lost();
    out.ecn_marks = net.segments_marked();
    out.pfc_pauses = net.pfc_pauses();
    out.flow_recomputes = net.rate_recomputes();
  }
};

struct ShardedEngine {
  peel::ShardedNetwork net;

  ShardedEngine(const peel::Topology& topo, const peel::SimConfig& sim,
                int threads)
      : net(topo, sim, threads) {}
  EventQueue& control() { return net.control(); }
  DataPlane& data() { return net; }
  SimEventSink* sink() { return nullptr; }  // one sink per domain replica
  void run() { net.run(); }
  [[nodiscard]] bool empty() const { return net.empty(); }
  const peel::Telemetry* telemetry() const { return net.merged_telemetry(); }
  void harvest(Outcome& out) const {
    out.events = net.events_processed();
    out.segments = net.segments_serialized();
    out.segments_lost = net.segments_lost();
    out.ecn_marks = net.segments_marked();
    out.pfc_pauses = net.pfc_pauses();
    out.windows_inline = net.windows_inline();
    out.windows_parallel = net.windows_parallel();
  }
};

// --- timing interposers -------------------------------------------------------

class TimedSink final : public SimEventSink {
 public:
  TimedSink(SimEventSink& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}
  void on_sim_event(const peel::SimEvent& ev) override {
    if (tracer_->sample_network()) {
      const Span span(tracer_, Layer::Network);
      inner_->on_sim_event(ev);
    } else {
      inner_->on_sim_event(ev);
    }
  }

 private:
  SimEventSink* inner_;
  Tracer* tracer_;
};

class TimedDataPlane final : public DataPlane {
 public:
  TimedDataPlane(DataPlane& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}

  void set_delivery_handler(
      std::function<void(const peel::DeliveryEvent&)> handler) override {
    if (!handler) {
      inner_->set_delivery_handler({});
      return;
    }
    inner_->set_delivery_handler(
        [tracer = tracer_,
         handler = std::move(handler)](const peel::DeliveryEvent& ev) {
          const Span span(tracer, Layer::Delivery);
          handler(ev);
        });
  }
  peel::StreamId open_stream(peel::StreamSpec spec) override {
    const Span span(tracer_, Layer::DataPlane);
    return inner_->open_stream(std::move(spec));
  }
  void send_chunk(peel::StreamId stream, int chunk, peel::Bytes bytes) override {
    const Span span(tracer_, Layer::DataPlane);
    inner_->send_chunk(stream, chunk, bytes);
  }
  std::vector<int> cancel_unsent_chunks(peel::StreamId stream) override {
    const Span span(tracer_, Layer::DataPlane);
    return inner_->cancel_unsent_chunks(stream);
  }
  void close_stream(peel::StreamId stream) override {
    const Span span(tracer_, Layer::DataPlane);
    inner_->close_stream(stream);
  }
  void on_duplex_failed(peel::LinkId l) override {
    const Span span(tracer_, Layer::DataPlane);
    inner_->on_duplex_failed(l);
  }
  void on_duplex_restored(peel::LinkId l) override {
    const Span span(tracer_, Layer::DataPlane);
    inner_->on_duplex_restored(l);
  }
  [[nodiscard]] bool stream_uses_link(peel::StreamId s,
                                      peel::LinkId l) const override {
    const Span span(tracer_, Layer::DataPlane);
    return inner_->stream_uses_link(s, l);
  }
  [[nodiscard]] peel::StreamDiagnostic stream_diagnostic(
      peel::StreamId s) const override {
    return inner_->stream_diagnostic(s);
  }
  [[nodiscard]] peel::Bytes link_bytes(peel::LinkId l) const override {
    return inner_->link_bytes(l);
  }

 private:
  DataPlane* inner_;
  Tracer* tracer_;
};

class TimedObserver final : public peel::TopologyObserver {
 public:
  TimedObserver(peel::CollectiveRunner& runner, Tracer* tracer)
      : runner_(&runner), tracer_(tracer) {}
  void on_topology_delta(const peel::TopologyDelta& delta) override {
    const Span span(tracer_, Layer::Delta);
    runner_->on_topology_delta(delta);
  }

 private:
  peel::CollectiveRunner* runner_;
  Tracer* tracer_;
};

/// Wires the interposers around an engine when traced; on destruction
/// restores the engine's own sink and stops the tracer watching its queue.
template <typename Engine>
class Interposed {
 public:
  Interposed(Engine& engine, Tracer* tracer)
      : engine_(&engine), tracer_(tracer), plane_(engine.data(), tracer) {
    if (tracer_ == nullptr) return;
    tracer_->watch(&engine.control());
    if (SimEventSink* inner = engine.sink()) {
      sink_.emplace(*inner, tracer_);
      engine.control().bind_sink(&*sink_);
    }
  }
  ~Interposed() {
    if (sink_) engine_->control().bind_sink(engine_->sink());
    if (tracer_ != nullptr) tracer_->watch(nullptr);
  }
  Interposed(const Interposed&) = delete;
  Interposed& operator=(const Interposed&) = delete;

  /// The proxy when traced, else the engine's own data plane.
  DataPlane& data() { return tracer_ != nullptr ? plane_ : engine_->data(); }

 private:
  Engine* engine_;
  Tracer* tracer_;
  TimedDataPlane plane_;
  std::optional<TimedSink> sink_;
};

/// Host seconds of engine.run().
template <typename Engine>
double timed_run(Engine& engine) {
  const auto start = Clock::now();
  engine.run();
  return seconds_since(start);
}

/// Shared tail of both compositions: watchdog, CCT samples, counters, audit.
template <typename Engine>
void finish(Engine& engine, const peel::Fabric& fabric,
            const peel::CollectiveRunner& runner, bool watchdog, bool audit,
            Outcome& out) {
  if (watchdog) peel::enforce_all_finished(runner, "event queue drained");
  for (const peel::CollectiveRecord& record : runner.records()) {
    if (record.finished) {
      out.cct_seconds.push_back(record.cct_seconds());
    } else {
      ++out.unfinished;
    }
  }
  engine.harvest(out);
  out.fabric_bytes =
      peel::bytes_on_links(engine.data(), fabric.topo(), true, true, false);
  out.core_bytes =
      peel::bytes_on_links(engine.data(), fabric.topo(), true, false, false);
  out.plan_cache = runner.plan_cache().stats();
  if (audit) {
    const peel::Telemetry* telem = engine.telemetry();
    if (telem == nullptr) throw std::logic_error("audit without telemetry");
    const bool clean = out.unfinished == 0 && engine.empty();
    const auto start = Clock::now();
    out.audit_violations = clean ? telem->conservation_violations()
                                 : telem->over_delivery_violations();
    out.audit_s = seconds_since(start);
  }
}

template <typename Engine>
Outcome scenario_with(Engine& engine, const peel::Fabric& fabric,
                      const peel::ScenarioConfig& config,
                      const ScenarioInputs& inputs, peel::Topology* faulty_topo,
                      Tracer* tracer) {
  using peel::CollectiveKind;
  Interposed<Engine> wired(engine, tracer);
  EventQueue& queue = engine.control();
  DataPlane& plane = wired.data();
  const peel::Rng rng(config.seed);
  peel::CollectiveRunner runner(fabric, plane, queue,
                                rng.fork(fork_tag::kRunner), config.runner);
  TimedObserver observer(runner, tracer);
  Outcome out;

  std::optional<peel::FaultInjector> injector;
  peel::TopologyEventBus bus;
  if (faulty_topo != nullptr) {
    bus.subscribe(&observer);
    injector.emplace(*faulty_topo, plane, queue, &bus);
    const peel::SimTime detect =
        peel::seconds_to_sim(config.faults.detection_delay_seconds);
    injector->set_handler([&, detect](const peel::AppliedFault&) {
      if (!config.faults.auto_recover) return;
      queue.after(detect, [&] {
        const Span span(tracer, Layer::Recover);
        out.recovered += runner.recover_all();
      });
    });
    injector->arm(inputs.faults);
  }

  std::uint64_t id = 0;
  for (const Submission& sub : inputs.submissions) {
    ++id;
    const peel::GroupSelection& group = sub.group;
    if (config.collective == CollectiveKind::AllReduce) {
      peel::AllReduceRequest req;
      req.id = id;
      req.members = group.destinations;
      req.members.push_back(group.source);
      req.buffer_bytes = config.message_bytes;
      queue.at(sub.t, [&runner, tracer, req, scheme = config.scheme]() mutable {
        const Span span(tracer, Layer::Submit);
        runner.submit_allreduce(scheme, std::move(req));
      });
    } else {
      peel::BroadcastRequest req;
      req.id = id;
      req.source = group.source;
      req.destinations = group.destinations;
      req.message_bytes = config.message_bytes;
      queue.at(sub.t, [&runner, tracer, req, scheme = config.scheme]() mutable {
        const Span span(tracer, Layer::Submit);
        runner.submit(scheme, std::move(req));
      });
    }
  }

  out.run_s = timed_run(engine);
  finish(engine, fabric, runner, config.watchdog, config.byte_audit, out);
  if (injector) {
    out.fault_downs = injector->pairs_failed();
    out.fault_ups = injector->pairs_restored();
  }
  return out;
}

template <typename Engine>
Outcome tenancy_with(Engine& engine, const peel::Fabric& fabric,
                     const peel::WorkloadConfig& config,
                     const std::vector<peel::JobSpec>& specs, Tracer* tracer) {
  Interposed<Engine> wired(engine, tracer);
  EventQueue& queue = engine.control();
  const peel::Rng rng(config.seed);
  peel::CollectiveRunner runner(fabric, wired.data(), queue,
                                rng.fork(fork_tag::kRunner), config.runner);
  peel::Rng placer = rng.fork(fork_tag::kPlacer);
  peel::Rng churner = rng.fork(fork_tag::kChurn);

  struct Job {
    peel::NodeId source = peel::kInvalidNode;
    std::vector<peel::NodeId> dests;
    int churned = 0;
  };
  std::vector<Job> jobs(specs.size());
  const int churn_events = config.churn.events_per_job;

  // run_workload's open-loop iteration for a scheme without group state:
  // churn when due, submit, and after the last iteration the departure
  // event (which has nothing to tear down for PEEL).
  const auto run_iteration = [&](std::size_t idx, int iter) {
    const peel::JobSpec& spec = specs[idx];
    Job& job = jobs[idx];
    if (config.churn.enabled() && iter != 0 && job.churned < churn_events) {
      const int stride =
          std::max(1, (spec.iterations + churn_events) / (churn_events + 1));
      if (iter % stride == 0) {
        int replaced = 0;
        {
          const Span span(tracer, Layer::Workload);
          replaced = peel::churn_group(fabric, job.dests, job.source,
                                       config.churn.replace_fraction, churner);
        }
        if (replaced > 0) ++job.churned;
      }
    }
    peel::BroadcastRequest req;
    req.id = (spec.job << 20) | static_cast<std::uint64_t>(iter + 1);
    req.job = spec.job;
    req.source = job.source;
    req.destinations = job.dests;
    req.message_bytes = spec.message_bytes;
    {
      const Span span(tracer, Layer::Submit);
      runner.submit(config.scheme, std::move(req));
    }
    if (iter + 1 >= spec.iterations) queue.after(spec.hold, [] {});
  };

  for (std::size_t idx = 0; idx < specs.size(); ++idx) {
    queue.at(specs[idx].arrival, [&, idx] {
      const peel::JobSpec& spec = specs[idx];
      Job& job = jobs[idx];
      {
        const Span span(tracer, Layer::Workload);
        const peel::PlacementOptions placement = peel::placement_for(
            spec.policy, spec.group_size, config.arrivals.fragmentation);
        peel::GroupSelection sel =
            peel::select_local_group(fabric, placement, placer);
        job.source = sel.source;
        job.dests = std::move(sel.destinations);
      }
      for (int i = 0; i < spec.iterations; ++i) {
        queue.after(static_cast<peel::SimTime>(i) * spec.iteration_gap,
                    [&, idx, i] { run_iteration(idx, i); });
      }
    });
  }

  Outcome out;
  out.run_s = timed_run(engine);
  finish(engine, fabric, runner, config.watchdog, config.byte_audit, out);
  return out;
}

/// Owning deep copy of a fabric for runs that mutate the topology (faults),
/// as run_scenario makes one.
struct FabricCopy {
  std::optional<peel::FatTree> fat_tree;
  std::optional<peel::LeafSpine> leaf_spine;

  explicit FabricCopy(const peel::Fabric& f) {
    if (f.fat_tree) {
      fat_tree.emplace(*f.fat_tree);
    } else {
      leaf_spine.emplace(*f.leaf_spine);
    }
  }
  [[nodiscard]] peel::Fabric view() const {
    return fat_tree ? peel::Fabric::of(*fat_tree) : peel::Fabric::of(*leaf_spine);
  }
  [[nodiscard]] peel::Topology& topo() {
    return fat_tree ? fat_tree->topo : leaf_spine->topo;
  }
};

peel::SimConfig sim_for(const peel::SimConfig& sim, bool audit) {
  peel::SimConfig out = sim;
  if (audit) out.telemetry.enabled = true;
  return out;
}

}  // namespace

Outcome outcome_of(const peel::ScenarioResult& r) {
  Outcome out;
  out.cct_seconds = r.cct_seconds.values();
  out.unfinished = r.unfinished;
  out.events = r.events;
  out.segments = r.segments;
  out.segments_lost = r.segments_lost;
  out.ecn_marks = r.ecn_marks;
  out.pfc_pauses = r.pfc_pauses;
  out.fabric_bytes = r.fabric_bytes;
  out.core_bytes = r.core_bytes;
  out.fault_downs = r.fault_downs;
  out.fault_ups = r.fault_ups;
  out.recovered = r.recovered_deliveries;
  out.plan_cache = r.plan_cache;
  return out;
}

bool same_simulation(const Outcome& a, const Outcome& b, std::string* why) {
  const auto differ = [why](const char* what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.cct_seconds != b.cct_seconds) return differ("CCT samples");
  if (a.unfinished != b.unfinished) return differ("unfinished collectives");
  if (a.events != b.events) return differ("events");
  if (a.segments != b.segments) return differ("segments");
  if (a.segments_lost != b.segments_lost) return differ("segments lost");
  if (a.ecn_marks != b.ecn_marks) return differ("ECN marks");
  if (a.pfc_pauses != b.pfc_pauses) return differ("PFC pauses");
  if (a.fabric_bytes != b.fabric_bytes) return differ("fabric bytes");
  if (a.core_bytes != b.core_bytes) return differ("core bytes");
  if (a.fault_downs != b.fault_downs || a.fault_ups != b.fault_ups) {
    return differ("fault transitions");
  }
  if (a.recovered != b.recovered) return differ("recovered deliveries");
  return true;
}

Outcome compose_scenario(const peel::Fabric& fabric,
                         const peel::ScenarioConfig& config,
                         const ScenarioInputs& inputs, Tracer* tracer) {
  if (config.collective == peel::CollectiveKind::AllGather ||
      config.group_pool != 0 || config.deadline_seconds > 0) {
    throw std::invalid_argument(
        "compose_scenario: only fresh-group Broadcast/AllReduce run to drain");
  }
  std::optional<FabricCopy> copy;
  if (config.faults.any()) copy.emplace(fabric);
  const peel::Fabric view = copy ? copy->view() : fabric;
  peel::Topology* faulty = copy ? &copy->topo() : nullptr;
  const peel::SimConfig sim = sim_for(config.sim, config.byte_audit);
  if (config.fidelity == peel::Fidelity::Flow) {
    FlowEngine engine(view.topo(), sim);
    return scenario_with(engine, view, config, inputs, faulty, tracer);
  }
  if (config.shards > 0) {
    ShardedEngine engine(view.topo(), sim, config.shards);
    return scenario_with(engine, view, config, inputs, faulty, tracer);
  }
  PacketEngine engine(view.topo(), sim);
  return scenario_with(engine, view, config, inputs, faulty, tracer);
}

Outcome compose_tenancy(const peel::Fabric& fabric,
                        const peel::WorkloadConfig& config,
                        const std::vector<peel::JobSpec>& jobs,
                        Tracer* tracer) {
  if (config.scheme != peel::Scheme::Peel ||
      config.collective != peel::CollectiveKind::Broadcast ||
      config.fidelity != peel::Fidelity::Flow || config.closed_loop ||
      config.deadline_seconds > 0) {
    throw std::invalid_argument(
        "compose_tenancy: only open-loop PEEL Broadcast at flow fidelity");
  }
  FlowEngine engine(fabric.topo(), sim_for(config.sim, config.byte_audit));
  return tenancy_with(engine, fabric, config, jobs, tracer);
}

}  // namespace peelbench
