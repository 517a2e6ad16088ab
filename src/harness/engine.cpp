#include "src/harness/engine.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace peel::detail {

Engine::Engine(const Topology& topo, SimConfig sim, Fidelity fidelity,
               int shards, bool byte_audit) {
  if (shards < 0) {
    throw std::invalid_argument("shards must be >= 0 (got " +
                                std::to_string(shards) + ")");
  }
  if (byte_audit) sim.telemetry.enabled = true;
  if (fidelity == Fidelity::Flow) {
    data_ = &flow_.emplace(topo, sim, queue_);
  } else if (shards > 0) {
    ShardedNetwork& net = sharded_.emplace(topo, sim, shards);
    control_ = &net.control();
    data_ = &net;
  } else {
    data_ = &packet_.emplace(topo, sim, queue_);
  }
}

void Engine::run() {
  if (sharded_) {
    sharded_->run();
  } else {
    queue_.run();
  }
}

void Engine::run_until(SimTime t) {
  if (sharded_) {
    sharded_->run_until(t);
  } else {
    queue_.run_until(t);
  }
}

bool Engine::empty() const {
  return sharded_ ? sharded_->empty() : queue_.empty();
}

SimTime Engine::now() const { return sharded_ ? sharded_->now() : queue_.now(); }

void Engine::reserve_series(std::size_t expected) {
  if (sharded_) {
    if (sharded_->telemetry_enabled()) sharded_->reserve_series(expected);
    return;
  }
  Telemetry* telem = flow_ ? flow_->telemetry() : packet_->telemetry();
  if (telem != nullptr) telem->reserve_series(expected);
}

const Telemetry* Engine::finished_telemetry() const {
  if (sharded_) return sharded_->merged_telemetry();
  return flow_ ? flow_->telemetry() : packet_->telemetry();
}

EngineStats Engine::stats() const {
  EngineStats s;
  const auto read_network = [&s](const auto& net) {
    s.segments = net.segments_serialized();
    s.segments_lost = net.segments_lost();
    s.pfc_pauses = net.pfc_pauses();
    s.ecn_marks = net.segments_marked();
    s.reduce_sram_peak = net.reduce_sram_peak();
  };
  if (sharded_) {
    read_network(*sharded_);
    s.events = sharded_->events_processed();
    s.events_chained = sharded_->events_chained();
    s.reduce_sram_peak_max_domain = sharded_->reduce_sram_peak_max_domain();
    return s;
  }
  s.events = queue_.processed();
  s.events_chained = queue_.chained();
  if (flow_) {
    read_network(*flow_);
    s.flow_solves = flow_->rate_recomputes();
    s.flow_solve_requests = flow_->solve_requests();
    s.flow_rerated = flow_->flows_rerated();
    s.flow_rates_changed = flow_->rates_changed();
    s.flow_stale_fills = flow_->stale_fills();
    s.flow_cascade_fills = flow_->cascade_fills();
  } else {
    read_network(*packet_);
  }
  // One fabric-wide gauge: the sum and the hottest domain coincide.
  s.reduce_sram_peak_max_domain = s.reduce_sram_peak;
  return s;
}

void audit_or_throw(const Telemetry& telem, bool clean,
                    const std::string& context) {
  const std::vector<std::string> violations =
      clean ? telem.conservation_violations()
            : telem.over_delivery_violations();
  if (violations.empty()) return;
  std::string msg = "byte-conservation audit failed (";
  msg += clean ? context + " at drain"
               : "partial " + context + ", over-delivery check only";
  msg += "):";
  for (const std::string& v : violations) {
    msg += "\n  ";
    msg += v;
  }
  throw std::runtime_error(msg);
}

namespace {

/// Builds the summary for result consumers, attaching flow lifetimes from
/// collective records (the engine cannot know them).
std::shared_ptr<const TelemetrySummary> make_summary(
    const Telemetry& telem, const CollectiveRunner& runner, SimTime now) {
  auto summary = std::make_shared<TelemetrySummary>(telem.summary(now));
  summary->flows.reserve(runner.records().size());
  for (const CollectiveRecord& record : runner.records()) {
    FlowSpan f;
    f.id = record.id;
    f.name =
        std::string(to_string(record.scheme)) + " #" + std::to_string(record.id);
    f.begin = record.submit_time;
    f.end = record.finished ? record.finish_time : now;
    f.finished = record.finished;
    summary->flows.push_back(std::move(f));
  }
  return summary;
}

}  // namespace

void run_and_harvest(Engine& engine, const CollectiveRunner& runner,
                     const Topology& topo, double deadline_seconds,
                     bool watchdog, bool byte_audit, const std::string& context,
                     ScenarioResult& out) {
  if (deadline_seconds > 0.0) {
    engine.run_until(seconds_to_sim(deadline_seconds));
  } else {
    engine.run();
  }
  if (watchdog) {
    enforce_all_finished(runner, engine.empty()
                                     ? "event queue drained"
                                     : "deadline " +
                                           std::to_string(deadline_seconds) +
                                           " s exceeded");
  }

  out.cct_seconds.reserve(runner.records().size());
  for (const CollectiveRecord& record : runner.records()) {
    if (record.finished) {
      out.cct_seconds.add(record.cct_seconds());
    } else {
      ++out.unfinished;
    }
  }

  if (const Telemetry* telem = engine.finished_telemetry()) {
    // The full conservation check only holds once everything drained and
    // finished; a deadline-truncated or unfinished run still must never
    // over-deliver.
    if (byte_audit) {
      audit_or_throw(*telem, out.unfinished == 0 && engine.empty(), context);
    }
    out.telemetry = make_summary(*telem, runner, engine.now());
  }

  const DataPlane& data = engine.data();
  out.fabric_bytes = bytes_on_links(data, topo, true, true, false);
  out.core_bytes = bytes_on_links(data, topo, true, false, false);
  out.sim_seconds = sim_to_seconds(engine.now());
  static_cast<EngineStats&>(out) = engine.stats();
  out.plan_cache = runner.plan_cache().stats();
}

}  // namespace peel::detail
