#include "src/harness/workload.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/baselines/group_table.h"
#include "src/harness/engine.h"
#include "src/prefix/prefix.h"
#include "src/steiner/symmetric.h"

namespace peel {

namespace {

using detail::audit_message;
using detail::FlowEngine;
using detail::make_summary;
using detail::ShardedEngine;
using detail::SoloEngine;

/// Collective ids are (job << 20) | iteration+1 — unique as long as a job
/// runs fewer than 2^20 iterations, and trivially attributable both ways.
constexpr int kIterationBits = 20;

[[nodiscard]] bool scheme_keeps_group_state(Scheme s) noexcept {
  // Optimal is classic in-network IP multicast (one entry per group per
  // switch); Orca's controller installs per-rack relay state per group.
  // PEEL (and its variants) forward on k-1 static prefix rules; Ring and
  // BinaryTree are host-side unicast; InNet combines in per-stream SRAM,
  // not per-group TCAM.
  return s == Scheme::Optimal || s == Scheme::Orca;
}

void validate(const WorkloadConfig& config) {
  if (config.collective == CollectiveKind::Broadcast &&
      config.scheme == Scheme::InNet) {
    throw std::invalid_argument("workload: broadcast does not support InNet");
  }
  if (config.collective == CollectiveKind::AllGather &&
      (config.scheme == Scheme::BinaryTree || config.scheme == Scheme::InNet)) {
    throw std::invalid_argument(
        "workload: AllGather supports Ring/Optimal/Orca/Peel/PeelProgCores");
  }
  if (config.collective == CollectiveKind::AllReduce &&
      config.scheme == Scheme::Orca) {
    throw std::invalid_argument("workload: AllReduce does not support Orca");
  }
}

/// Optimal multicast tree over the failure-free fabric — the footprint a
/// group's switch entries occupy. The job id seeds the core/agg selector so
/// concurrent groups spread across the redundant tier (and their entries
/// across switches), as an ECMP-hashing controller would.
[[nodiscard]] MulticastTree group_tree(const Fabric& fabric, NodeId source,
                                       const std::vector<NodeId>& dests,
                                       std::uint64_t selector) {
  return fabric.fat_tree
             ? optimal_fat_tree_tree(*fabric.fat_tree, source, dests, selector)
             : optimal_leaf_spine_tree(*fabric.leaf_spine, source, dests,
                                       selector);
}

/// PEEL's per-switch static rule budget on this fabric: 2^(m+1)-1 rules over
/// the m-bit identifier space that covers one pod's ToRs (= k-1 on a k-ary
/// fat-tree) or the leaf tier on a leaf-spine.
[[nodiscard]] std::size_t static_rules(const Fabric& fabric) {
  const int blocks = fabric.fat_tree
                         ? fabric.fat_tree->tors_per_pod()
                         : static_cast<int>(fabric.leaf_spine->leaves.size());
  return rule_count(id_bits(blocks));
}

/// Per-job runtime state, indexed by job-1.
struct JobRt {
  NodeId source = kInvalidNode;
  std::vector<NodeId> dests;
  Scheme scheme = Scheme::Peel;  ///< current data-plane scheme
  bool arrived = false;
  bool installed = false;  ///< holds group-table entries right now
  bool cancelled = false;  ///< dropped (no fallback) — nothing more runs
  bool departed = false;
  int submitted = 0;
  int churned = 0;
};

template <typename Engine>
WorkloadResult run_workload_with(Engine& engine, const Fabric& fabric,
                                 const WorkloadConfig& config,
                                 const std::vector<JobSpec>& specs) {
  EventQueue& queue = engine.control();
  Rng rng(config.seed);
  CollectiveRunner runner(fabric, engine.data(), queue, rng.fork(0xc0'11ec),
                          config.runner);
  Rng placer = rng.fork(0x97ace);
  Rng churner = rng.fork(0xc4112);
  Rng setup_rng = rng.fork(0x5e7);

  const bool group_state = scheme_keeps_group_state(config.scheme);
  MulticastGroupTable table(
      fabric.topo(), config.table_capacity == 0
                         ? std::numeric_limits<std::size_t>::max()
                         : config.table_capacity);

  WorkloadResult result;
  result.jobs.resize(specs.size());
  result.jobs_submitted = specs.size();
  result.static_rules_per_switch = static_rules(fabric);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobOutcome& out = result.jobs[i];
    out.job = specs[i].job;
    out.policy = specs[i].policy;
    out.scheme = config.scheme;
    out.group_size = specs[i].group_size;
    out.arrival_seconds = sim_to_seconds(specs[i].arrival);
  }
  std::vector<JobRt> rt(specs.size());
  // ~2 lifecycle samples per job plus one per churn re-install.
  result.tcam_series.reserve(
      specs.size() * (2 + static_cast<std::size_t>(std::max(
                              0, config.churn.events_per_job))) +
      1);

  const auto sample_tcam = [&] {
    TcamSample s;
    s.seconds = sim_to_seconds(queue.now());
    s.groups = table.groups_installed();
    s.total_entries = table.total_entries();
    s.max_occupancy = table.max_occupancy();
    s.admission_failures = result.admission_failures;
    result.tcam_peak_groups = std::max(result.tcam_peak_groups, s.groups);
    result.tcam_peak_entries =
        std::max(result.tcam_peak_entries, s.total_entries);
    result.tcam_peak_occupancy =
        std::max(result.tcam_peak_occupancy, s.max_occupancy);
    result.tcam_series.push_back(s);
  };

  // Churn is spread evenly over a job's iterations: with E events and I
  // iterations, one membership change lands before iterations stride,
  // 2*stride, ... (stride = ceil(I / (E+1))), capped at E events.
  const auto churn_due = [&](const JobSpec& spec, int iter) {
    if (!config.churn.enabled() || iter == 0) return false;
    const int stride = std::max(
        1, (spec.iterations + config.churn.events_per_job) /
               (config.churn.events_per_job + 1));
    return iter % stride == 0;
  };

  /// One truncated-normal controller install latency (fig4's N(10ms, 5ms)),
  /// honoring the runner's controller toggle.
  const auto draw_setup = [&]() -> SimTime {
    if (!config.runner.controller_delay_enabled) return 0;
    return static_cast<SimTime>(setup_rng.normal_truncated(
        static_cast<double>(config.runner.controller_mean),
        static_cast<double>(config.runner.controller_stddev), 0.0));
  };

  const auto install_group = [&](std::size_t idx) -> bool {
    const JobSpec& spec = specs[idx];
    JobRt& job = rt[idx];
    const MulticastTree tree =
        group_tree(fabric, job.source, job.dests, spec.job);
    if (!table.install(spec.job, tree)) {
      ++result.admission_failures;
      return false;
    }
    ++result.group_installs;
    ++result.controller_updates;
    job.installed = true;
    return true;
  };

  const auto remove_group = [&](std::size_t idx) {
    if (!rt[idx].installed) return;
    table.remove(specs[idx].job);
    rt[idx].installed = false;
    ++result.group_removes;
    ++result.controller_updates;
  };

  const auto depart = [&](std::size_t idx) {
    JobRt& job = rt[idx];
    if (job.departed) return;
    job.departed = true;
    remove_group(idx);
    sample_tcam();  // stateless schemes timestamp a flat (all-zero) series
  };

  /// Degrade to Ring or cancel, per config — shared by the arrival-reject
  /// and churn-reject paths.
  const auto reject = [&](std::size_t idx) {
    JobRt& job = rt[idx];
    JobOutcome& out = result.jobs[idx];
    out.admitted = false;
    if (config.ring_fallback) {
      job.scheme = Scheme::Ring;
      out.scheme = Scheme::Ring;
      out.fell_back = true;
    } else {
      job.cancelled = true;
      out.rejected = job.submitted == 0;
    }
  };

  const auto do_submit = [&](std::size_t idx, int iter) {
    const JobSpec& spec = specs[idx];
    JobRt& job = rt[idx];
    const std::uint64_t id =
        (spec.job << kIterationBits) | static_cast<std::uint64_t>(iter + 1);
    if (config.collective == CollectiveKind::AllGather) {
      AllGatherRequest req;
      req.id = id;
      req.job = spec.job;
      req.members = job.dests;
      req.members.push_back(job.source);
      req.total_bytes = spec.message_bytes;
      runner.submit_allgather(job.scheme, std::move(req));
    } else if (config.collective == CollectiveKind::AllReduce) {
      AllReduceRequest req;
      req.id = id;
      req.job = spec.job;
      req.members = job.dests;
      req.members.push_back(job.source);
      req.buffer_bytes = spec.message_bytes;
      runner.submit_allreduce(job.scheme, std::move(req));
    } else {
      BroadcastRequest req;
      req.id = id;
      req.job = spec.job;
      req.source = job.source;
      req.destinations = job.dests;
      req.message_bytes = spec.message_bytes;
      runner.submit(job.scheme, std::move(req));
    }
    ++job.submitted;
  };

  // One iteration: churn if due (re-walking the controller for group-state
  // schemes), then submit — deferred by the controller's install latency
  // when one was just paid. The final iteration schedules the job's
  // departure (open loop: `hold` after its submission; closed loop departs
  // from the finish handler instead).
  std::function<void(std::size_t, int)> run_iteration;
  run_iteration = [&](std::size_t idx, int iter) {
    const JobSpec& spec = specs[idx];
    JobRt& job = rt[idx];
    if (job.cancelled || job.departed) return;
    SimTime delay = 0;
    if (churn_due(spec, iter) &&
        job.churned < config.churn.events_per_job) {
      const int replaced = churn_group(fabric, job.dests, job.source,
                                       config.churn.replace_fraction, churner);
      if (replaced > 0) {
        ++job.churned;
        ++result.churn_events;
        ++result.jobs[idx].churn_events;
        if (group_state && job.installed) {
          // Membership changed: the controller tears down the old entries
          // and walks the new tree through admission again.
          remove_group(idx);
          if (install_group(idx)) {
            delay += job.scheme == Scheme::Optimal ? draw_setup() : 0;
          } else {
            reject(idx);
          }
          sample_tcam();
          if (job.cancelled) return;
        }
      }
    }
    const bool last = iter + 1 >= spec.iterations;
    const auto fire = [&, idx, iter, last] {
      if (rt[idx].cancelled || rt[idx].departed) return;
      do_submit(idx, iter);
      if (last && !config.closed_loop) {
        queue.after(specs[idx].hold, [&, idx] { depart(idx); });
      }
    };
    if (delay > 0) {
      queue.after(delay, fire);
    } else {
      fire();
    }
  };

  // Closed loop: chain iteration i+1 (after the think-time gap) off
  // iteration i's completion; depart when the last one finishes.
  if (config.closed_loop) {
    runner.set_finish_handler([&](const CollectiveRecord& rec) {
      if (rec.job == 0) return;
      const std::size_t idx = static_cast<std::size_t>(rec.job) - 1;
      const int iter =
          static_cast<int>(rec.id & ((1u << kIterationBits) - 1)) - 1;
      if (iter + 1 < specs[idx].iterations) {
        queue.after(specs[idx].iteration_gap,
                    [&, idx, iter] { run_iteration(idx, iter + 1); });
      } else {
        depart(idx);
      }
    });
  }

  // Arrivals: placement is drawn when the arrival fires (all control-plane
  // draws happen in queue order — the determinism contract in the header).
  for (std::size_t idx = 0; idx < specs.size(); ++idx) {
    queue.at(specs[idx].arrival, [&, idx] {
      const JobSpec& spec = specs[idx];
      JobRt& job = rt[idx];
      job.arrived = true;
      job.scheme = config.scheme;
      const PlacementOptions placement = placement_for(
          spec.policy, spec.group_size, config.arrivals.fragmentation);
      GroupSelection sel = select_local_group(fabric, placement, placer);
      job.source = sel.source;
      job.dests = std::move(sel.destinations);
      JobOutcome& out = result.jobs[idx];
      out.admitted = true;
      SimTime setup = 0;
      if (group_state) {
        if (install_group(idx)) {
          // Orca's controller latency is charged per collective inside the
          // runner (fig4); charging it here too would double-count. Optimal
          // models classic IP multicast, whose join walks the controller
          // once per membership epoch — pay it on the first iteration.
          if (job.scheme == Scheme::Optimal) setup = draw_setup();
        } else {
          reject(idx);
        }
      }
      sample_tcam();  // lifecycle sample even for stateless schemes
      if (job.cancelled) return;
      if (config.closed_loop) {
        if (setup > 0) {
          queue.after(setup, [&, idx] { run_iteration(idx, 0); });
        } else {
          run_iteration(idx, 0);
        }
      } else {
        // Open loop: every iteration at a fixed instant — arrival + setup +
        // i*gap — so the whole control-plane schedule is engine-independent.
        for (int i = 0; i < spec.iterations; ++i) {
          queue.after(setup + static_cast<SimTime>(i) * spec.iteration_gap,
                      [&, idx, i] { run_iteration(idx, i); });
        }
      }
    });
  }

  if (config.deadline_seconds > 0.0) {
    engine.run_until(seconds_to_sim(config.deadline_seconds));
  } else {
    engine.run();
  }

  if (config.watchdog) {
    enforce_all_finished(
        runner, engine.empty() ? "event queue drained"
                               : "deadline " +
                                     std::to_string(config.deadline_seconds) +
                                     " s exceeded");
  }

  // --- harvest -----------------------------------------------------------
  ScenarioResult& sim = result.sim;
  result.cct_seconds.reserve(runner.records().size());
  std::unordered_map<std::uint64_t, std::pair<double, int>> per_job;
  per_job.reserve(specs.size());
  for (const CollectiveRecord& record : runner.records()) {
    if (!record.finished) {
      ++sim.unfinished;
      continue;
    }
    const double cct = record.cct_seconds();
    result.cct_seconds.add(cct);
    sim.cct_seconds.add(cct);
    auto& [sum, count] = per_job[record.job];
    sum += cct;
    ++count;
  }
  for (std::size_t idx = 0; idx < specs.size(); ++idx) {
    JobOutcome& out = result.jobs[idx];
    const auto it = per_job.find(specs[idx].job);
    if (it != per_job.end() && it->second.second > 0) {
      out.iterations_finished = it->second.second;
      out.mean_cct_seconds =
          it->second.first / static_cast<double>(it->second.second);
      result.job_mean_cct_seconds.add(out.mean_cct_seconds);
    }
    if (out.fell_back) ++result.jobs_fell_back;
    if (out.rejected) ++result.jobs_rejected;
    if (out.admitted && !out.fell_back && !rt[idx].cancelled &&
        rt[idx].arrived) {
      ++result.jobs_admitted;
    }
  }

  if (const Telemetry* telem = engine.finished_telemetry()) {
    if (config.byte_audit) {
      const bool clean = sim.unfinished == 0 && engine.empty();
      const std::vector<std::string> violations =
          clean ? telem->conservation_violations()
                : telem->over_delivery_violations();
      if (!violations.empty()) {
        throw std::runtime_error(audit_message(
            clean ? "workload drain" : "partial workload, over-delivery only",
            violations));
      }
    }
    sim.telemetry = make_summary(*telem, runner, engine.now());
  }

  sim.fabric_bytes =
      bytes_on_links(engine.data(), fabric.topo(), true, true, false);
  sim.core_bytes =
      bytes_on_links(engine.data(), fabric.topo(), true, false, false);
  sim.sim_seconds = sim_to_seconds(engine.now());
  sim.events = engine.events();
  sim.events_chained = engine.events_chained();
  sim.segments = engine.segments_serialized();
  sim.segments_lost = engine.segments_lost();
  sim.pfc_pauses = engine.pfc_pauses();
  sim.ecn_marks = engine.segments_marked();
  harvest_flow_solver(engine, sim);
  sim.reduce_sram_peak = engine.reduce_sram_peak();
  sim.reduce_sram_peak_max_domain = engine.reduce_sram_peak_max_domain();
  sim.plan_cache = runner.plan_cache().stats();
  result.controller_update_rate_hz =
      sim.sim_seconds > 0.0
          ? static_cast<double>(result.controller_updates) / sim.sim_seconds
          : 0.0;
  return result;
}

}  // namespace

WorkloadResult run_workload(const Fabric& fabric,
                            const WorkloadConfig& config) {
  validate(config);
  SimConfig sim = config.sim;
  if (config.byte_audit) sim.telemetry.enabled = true;

  // The arrival schedule is generated before the engine exists — it is a
  // pure function of (arrivals, seed) and identical whichever engine runs it.
  Rng rng(config.seed);
  Rng arrivals_rng = rng.fork(0xa41);
  const std::vector<JobSpec> specs =
      generate_arrivals(config.arrivals, arrivals_rng);

  if (config.fidelity == Fidelity::Flow) {
    FlowEngine engine(fabric.topo(), sim);
    return run_workload_with(engine, fabric, config, specs);
  }
  if (config.shards > 0) {
    ShardedEngine engine(fabric.topo(), sim, config.shards);
    return run_workload_with(engine, fabric, config, specs);
  }
  SoloEngine engine(fabric.topo(), sim);
  return run_workload_with(engine, fabric, config, specs);
}

}  // namespace peel
