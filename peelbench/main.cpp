// peelbench: the simulator's benchmark program (see README.md).
//
//   peelbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 (untraced): sets the workload up several times, then repeats the
// workload through the public harness (run_scenario / run_workload) until
// --seconds have passed, and reports the end-to-end metrics.
// --trace 1 (traced): runs the workload once through the harness and once
// through the benchmark's own composition with timing interposers
// (compose.h), checks the two agree exactly, adds the audited, sharded,
// sweep and flow-fidelity side runs, and reports the per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Lines before it are the human-readable report.
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compose.h"
#include "src/common/stats.h"
#include "src/harness/sweep.h"
#include "trace.h"
#include "workloads.h"

namespace peelbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< empty == correct
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) {
    std::printf("  CHECK FAILED: %s\n", what.c_str());
    problems.push_back(std::move(what));
  }
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "peelbench: %s\nusage: peelbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("--workload must be fig5-packet, flow-tenancy or fig7-flap");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// --- host fingerprint ----------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

void print_fingerprint() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  utsname u{};
  uname(&u);
  std::printf("host: nproc=%u cpu=\"%s\" kernel=%s compiler=\"%s\" build=%s\n",
              host_cpus(), cpu_model().c_str(), u.release, compiler,
              PEELBENCH_BUILD_TYPE);
}

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- one cell through the harness or the composition -----------------------------

/// The cell through the program's own harness.
Outcome run_harness(const Workload& w, const Cell& cell) {
  if (cell.tenancy) return outcome_of(peel::run_workload(w.fabric(), *cell.tenancy).sim);
  return outcome_of(peel::run_scenario(w.fabric(), *cell.scenario));
}

/// The cell through the benchmark's composition (audit on request).
Outcome run_composed(const Workload& w, const Cell& cell, bool audit,
                     Tracer* tracer) {
  if (cell.tenancy) {
    peel::WorkloadConfig config = *cell.tenancy;
    config.byte_audit = audit;
    return compose_tenancy(w.fabric(), config, cell.jobs, tracer);
  }
  peel::ScenarioConfig config = *cell.scenario;
  config.byte_audit = audit;
  return compose_scenario(w.fabric(), config, cell.inputs, tracer);
}

/// Physical floor of any collective's CCT: the source (or each contributor)
/// serializes the whole message on its NIC at least once.
double cct_floor_s(const Workload& w, const Cell& cell) {
  const peel::GbpsRate rate = w.fat_tree ? w.fat_tree->config.fabric_rate
                                         : w.leaf_spine->config.fabric_rate;
  return peel::sim_to_seconds(rate.tx_time(cell.min_message_bytes()));
}

/// Output checks every harness or composed outcome must pass.
void check_outcome(const Workload& w, const Cell& cell, const Outcome& o,
                   Report& rep) {
  if (o.unfinished != 0 || o.cct_seconds.size() != cell.collectives()) {
    rep.problem(cell.name + ": " + std::to_string(o.cct_seconds.size()) +
                " of " + std::to_string(cell.collectives()) +
                " collectives finished");
  }
  const double floor = cct_floor_s(w, cell);
  for (double cct : o.cct_seconds) {
    if (!std::isfinite(cct) || cct < floor) {
      rep.problem(cell.name + ": CCT " + std::to_string(cct * 1e6) +
                  " us below the NIC serialization floor " +
                  std::to_string(floor * 1e6) + " us");
      break;
    }
  }
  if (o.fabric_bytes <= 0) rep.problem(cell.name + ": no fabric bytes");
}

/// Runs `fn` for one cell, counting its collectives as attempted and, when
/// it throws (audit violation, StuckFlowError, logic_error, ...), as failed.
template <typename Fn>
std::optional<Outcome> guarded(const Cell& cell, Report& rep, Fn&& fn) {
  rep.attempted += cell.collectives();
  try {
    return fn();
  } catch (const std::exception& e) {
    rep.failed += cell.collectives();
    rep.problem(cell.name + " threw: " + e.what());
    return std::nullopt;
  }
}

void print_cell(const Cell& cell, const Outcome& o, double wall) {
  peel::Samples cct;
  for (double c : o.cct_seconds) cct.add(c);
  std::printf("  %-24s wall %7.3f s  peak rss %7.1f MiB  CCT p10 %8.1f p50 "
              "%8.1f p90 %8.1f us\n",
              cell.name.c_str(), wall, peak_rss_mib(), cct.quantile(0.1) * 1e6,
              cct.p50() * 1e6, cct.quantile(0.9) * 1e6);
}

// --- untraced mode ----------------------------------------------------------------

/// Set-ups measured before the timed body, and again after each replica of
/// the first pass: set-up is milliseconds, and host speed drifts over a run,
/// so its median is taken over samples spread across the whole run.
constexpr int kSetupsBefore = 11;
constexpr int kSetupsPerReplica = 5;

void measure_setups(const Args& a, int n, std::vector<double>& setups) {
  for (int r = 0; r < n; ++r) {
    const auto start = Clock::now();
    const Workload w = make_workload(a.workload, a.seed);
    setups.push_back(seconds_since(start));
  }
}

/// Releases freed heap to the OS and restarts the kernel's peak-RSS count,
/// so VmHWM afterwards is the peak of what runs next.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

Report run_untraced(const Args& a) {
  Report rep;
  std::vector<double> setups;
  measure_setups(a, kSetupsBefore, setups);
  const Workload w = make_workload(a.workload, a.seed);
  std::printf("workload %s seed %llu: %zu collectives in %zu cells, %d "
              "replicas per pass\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              w.collectives(), w.cells.size(), w.replicas);

  // Whole passes until --seconds: another pass only when it should end in
  // time. Every pass runs the same inputs, so each must repeat the first.
  // Figures are medians over replicas, so that one replica whose arrivals
  // happened to pile up does not move them.
  const auto nr = static_cast<std::size_t>(w.replicas);
  std::vector<std::optional<Outcome>> first(w.cells.size());
  std::vector<double> rates;  // per replica and pass
  std::vector<double> rss(nr, 0.0);
  std::vector<peel::Samples> cct(nr);
  peel::Samples pooled;
  const auto body = Clock::now();
  double pass_wall = 0.0;
  bool first_pass = true;
  do {
    const auto pass_start = Clock::now();
    std::vector<double> wall(nr, 0.0);
    std::vector<std::size_t> finished(nr, 0);
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const Cell& cell = w.cells[c];
      const auto r = static_cast<std::size_t>(cell.replica);
      const bool replica_starts = c == 0 || w.cells[c - 1].replica != cell.replica;
      if (first_pass && replica_starts) {
        if (c > 0) measure_setups(a, kSetupsPerReplica, setups);
        reset_peak_rss();
      }
      const auto cell_start = Clock::now();
      std::optional<Outcome> o =
          guarded(cell, rep, [&] { return run_harness(w, cell); });
      wall[r] += seconds_since(cell_start);
      if (!o) continue;
      finished[r] += o->cct_seconds.size();
      if (first_pass) {
        rss[r] = peak_rss_mib();
        print_cell(cell, *o, seconds_since(cell_start));
        check_outcome(w, cell, *o, rep);
        for (double x : o->cct_seconds) {
          cct[r].add(x);
          pooled.add(x);
        }
        first[c] = std::move(o);
      } else if (std::string why;
                 first[c] && !same_simulation(*first[c], *o, &why)) {
        rep.problem(cell.name + ": repeat pass differs (" + why + ")");
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      if (wall[r] > 0) rates.push_back(static_cast<double>(finished[r]) / wall[r]);
    }
    pass_wall = seconds_since(pass_start);
    first_pass = false;
  } while (seconds_since(body) + pass_wall <= a.seconds);

  std::vector<double> p50, p90;
  for (const peel::Samples& s : cct) {
    if (s.empty()) continue;
    p50.push_back(s.p50() * 1e6);
    p90.push_back(s.quantile(0.90) * 1e6);
  }
  std::printf("replica collectives/s:");
  for (double r : rates) std::printf(" %.2f", r);
  std::printf("\nreplica peak RSS MiB:");
  for (double r : rss) std::printf(" %.1f", r);
  std::printf("\nreplica CCT p50 / p90 us:");
  for (std::size_t i = 0; i < p50.size(); ++i) {
    std::printf(" %.1f/%.1f", p50[i], p90[i]);
  }
  const std::size_t per_replica = pooled.count() / std::max<std::size_t>(1, p50.size());
  std::printf("\nCCT samples: %zu (%zu per replica, %zu beyond each replica's "
              "p90); pooled p50 %.1f us, p90 %.1f us\n",
              pooled.count(), per_replica,
              per_replica - static_cast<std::size_t>(
                                std::ceil(0.9 * static_cast<double>(per_replica))),
              pooled.empty() ? 0.0 : pooled.p50() * 1e6,
              pooled.empty() ? 0.0 : pooled.quantile(0.9) * 1e6);
  if (pooled.empty() || rates.empty()) {
    rep.problem("no cell finished");
    pooled.add(0.0);
    rates.push_back(0.0);
  }
  rep.add("setup_s", median(setups), "s");
  rep.add("collectives_per_s", median(rates), "1/s");
  rep.add("peak_rss_mib", mean(rss), "MiB");
  rep.add("sim_cct_p50_us", pooled.p50() * 1e6, "us");
  rep.add("sim_cct_p90_us", pooled.quantile(0.90) * 1e6, "us");
  return rep;
}

// --- traced mode ------------------------------------------------------------------

/// Side runs only fig5-packet makes: its cells at flow fidelity, and its
/// first PEEL cell on the sharded engine.
void fig5_side_runs(const Workload& w, const std::vector<std::optional<Outcome>>& ref,
                    const std::vector<double>& ref_wall, Report& rep) {
  double packet_wall = 0.0;
  double flow_wall = 0.0;
  double worst_err = 0.0;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const Cell& cell = w.cells[c];
    if (!ref[c]) continue;
    peel::ScenarioConfig config = *cell.scenario;
    config.fidelity = peel::Fidelity::Flow;
    const auto start = Clock::now();
    std::optional<Outcome> flow = guarded(cell, rep, [&] {
      return outcome_of(peel::run_scenario(w.fabric(), config));
    });
    const double wall = seconds_since(start);
    if (!flow) continue;
    packet_wall += ref_wall[c];
    flow_wall += wall;
    peel::Samples p, f;
    for (double x : ref[c]->cct_seconds) p.add(x);
    for (double x : flow->cct_seconds) f.add(x);
    const double err = std::abs(f.mean() - p.mean()) / p.mean() * 100.0;
    worst_err = std::max(worst_err, err);
    std::printf("  flow fidelity %-24s mean CCT %8.1f us (packet %8.1f)  err "
                "%5.1f%%  wall %.3f s (packet %.3f s)\n",
                cell.name.c_str(), f.mean() * 1e6, p.mean() * 1e6, err, wall,
                ref_wall[c]);
    if (flow->fabric_bytes != ref[c]->fabric_bytes) {
      rep.problem(cell.name + ": flow fabric bytes " +
                  std::to_string(flow->fabric_bytes) + " != packet " +
                  std::to_string(ref[c]->fabric_bytes));
    }
  }
  rep.add("flow.cct_err_pct", worst_err, "%");
  rep.add("flow.speedup_vs_packet", flow_wall > 0 ? packet_wall / flow_wall : 0.0,
          "ratio");

  // Sharded engine at 1, 2 and 4 workers (never more than the host has).
  const Cell& cell = w.cells.front();
  std::optional<Outcome> one;
  double speedup[3] = {0.0, 0.0, 0.0};
  double parallel_frac = 0.0;
  const int workers[] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    const int n = std::min<int>(workers[i], static_cast<int>(host_cpus()));
    peel::ScenarioConfig config = *cell.scenario;
    config.shards = n;
    const auto start = Clock::now();
    std::optional<Outcome> o = guarded(cell, rep, [&] {
      return compose_scenario(w.fabric(), config, cell.inputs, nullptr);
    });
    const double wall = seconds_since(start);
    if (!o) continue;
    speedup[i] = ref_wall.front() / wall;
    const double windows =
        static_cast<double>(o->windows_inline + o->windows_parallel);
    parallel_frac =
        windows > 0 ? static_cast<double>(o->windows_parallel) / windows : 0.0;
    std::printf("  sharded %s, %d worker(s): wall %.3f s (solo %.3f s), "
                "windows inline %llu parallel %llu\n",
                cell.name.c_str(), n, wall, ref_wall.front(),
                static_cast<unsigned long long>(o->windows_inline),
                static_cast<unsigned long long>(o->windows_parallel));
    if (!one) {
      one = std::move(o);
    } else if (std::string why; !same_simulation(*one, *o, &why)) {
      rep.problem("sharded run at " + std::to_string(n) +
                  " workers differs from 1 worker (" + why + ")");
    }
  }
  rep.add("sharded.speedup_2w", speedup[1], "ratio");
  rep.add("sharded.speedup_4w", speedup[2], "ratio");
  rep.add("sharded.windows_parallel_frac", parallel_frac, "ratio");
}

/// Side run only fig7-flap makes: its cells through run_sweep at 1 and 4
/// threads (fewer when the host has fewer CPUs).
void fig7_side_runs(const Workload& w, const std::vector<std::optional<Outcome>>& ref,
                    Report& rep) {
  peel::SweepSpec spec;
  spec.base = *w.cells.front().scenario;
  spec.replicas = static_cast<int>(w.cells.size());
  spec.customize = [&w](const peel::SweepPoint& point, peel::ScenarioConfig& c) {
    c = *w.cells[static_cast<std::size_t>(point.replica)].scenario;
  };
  double wall[2] = {0.0, 0.0};
  std::vector<peel::SweepCell> cells[2];
  const int threads[2] = {1, std::min(4, static_cast<int>(host_cpus()))};
  for (int i = 0; i < 2; ++i) {
    const auto start = Clock::now();
    rep.attempted += w.collectives();
    try {
      cells[i] = peel::run_sweep(w.fabric(), spec, peel::SweepOptions{threads[i]})
                     .cells();
    } catch (const std::exception& e) {
      rep.problem(std::string("run_sweep threw: ") + e.what());
      rep.failed += w.collectives();
    }
    wall[i] = seconds_since(start);
    std::printf("  run_sweep %zu cells at %d thread(s): wall %.3f s\n",
                w.cells.size(), threads[i], wall[i]);
  }
  if (cells[0].size() == w.cells.size() && cells[1].size() == w.cells.size()) {
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const Outcome one = outcome_of(cells[0][c].result);
      const Outcome many = outcome_of(cells[1][c].result);
      std::string why;
      if (!same_simulation(one, many, &why)) {
        rep.problem(w.cells[c].name + ": sweep at " + std::to_string(threads[1]) +
                    " threads differs from 1 thread (" + why + ")");
      }
      if (ref[c] && !same_simulation(*ref[c], one, &why)) {
        rep.problem(w.cells[c].name + ": sweep cell differs from run_scenario (" +
                    why + ")");
      }
    }
  }
  rep.add("sweep.speedup_4t", wall[1] > 0 ? wall[0] / wall[1] : 0.0, "ratio");
}

void write_trace(const std::string& path, const Args& a, const Tracer& tr) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "peelbench: cannot write %s\n", path.c_str());
    return;
  }
  static const char* kLayerNames[kLayers] = {
      "network", "dataplane", "delivery", "submit", "delta", "recover", "workload"};
  out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"layers\": {";
  for (std::size_t i = 0; i < kLayers; ++i) {
    const auto l = static_cast<Layer>(i);
    out << (i ? ", " : "") << '"' << kLayerNames[i] << "\": {\"self_s\": "
        << tr.self_s(l) << ", \"spans\": " << tr.calls(l) << '}';
  }
  out << "}, \"phases\": [";
  const auto& phases = tr.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << phases[i].name << "\", \"start_s\": " << phases[i].start_s
        << ", \"end_s\": " << phases[i].end_s
        << ", \"parent\": " << phases[i].parent << '}';
  }
  out << "\n]}\n";
}

Report run_traced(const Args& a) {
  Report rep;
  // Timed runs compare thread counts themselves; keep the environment out.
  unsetenv("PEEL_BENCH_THREADS");
  Workload w = make_workload(a.workload, a.seed);
  std::erase_if(w.cells, [&w](const Cell& cell) {
    return cell.replica >= w.traced_replicas;
  });
  const std::size_t cells = w.cells.size();
  const bool flow = w.cells.front().tenancy.has_value();
  std::printf("workload %s seed %llu (traced): %zu collectives in %zu cells\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              w.collectives(), cells);

  // Each cell runs three times back to back, so host drift during the run
  // hardly enters the overhead ratios:
  //   1. through the program's harness, untraced (the reference);
  //   2. through the traced composition, which must reproduce it exactly;
  //   3. through the composition with the byte audit and reduction ledger.
  Tracer tr;
  Outcome sum;
  std::vector<std::optional<Outcome>> ref(cells);
  std::vector<double> ref_wall(cells, 0.0);
  double traced_wall = 0.0;
  double audited_wall = 0.0;
  double run_s = 0.0;
  double audit_s = 0.0;
  bool audit_clean = true;
  for (std::size_t c = 0; c < cells; ++c) {
    const Cell& cell = w.cells[c];
    auto start = Clock::now();
    ref[c] = guarded(cell, rep, [&] { return run_harness(w, cell); });
    ref_wall[c] = seconds_since(start);
    if (ref[c]) check_outcome(w, cell, *ref[c], rep);

    std::optional<Outcome> traced;
    {
      const Phase phase(&tr, cell.name);
      start = Clock::now();
      traced = guarded(cell, rep, [&] { return run_composed(w, cell, false, &tr); });
      traced_wall += seconds_since(start);
    }
    std::string why;
    if (traced) {
      if (ref[c] && !same_simulation(*ref[c], *traced, &why)) {
        rep.problem(cell.name + ": traced composition differs from the harness (" +
                    why + ")");
      }
      run_s += traced->run_s;
      sum.events += traced->events;
      sum.segments += traced->segments;
      sum.segments_lost += traced->segments_lost;
      sum.ecn_marks += traced->ecn_marks;
      sum.pfc_pauses += traced->pfc_pauses;
      sum.fault_downs += traced->fault_downs;
      sum.fault_ups += traced->fault_ups;
      sum.recovered += traced->recovered;
      sum.flow_recomputes += traced->flow_recomputes;
      sum.plan_cache.hits += traced->plan_cache.hits;
      sum.plan_cache.misses += traced->plan_cache.misses;
      sum.plan_cache.repairs += traced->plan_cache.repairs;
      sum.plan_cache.invalidations += traced->plan_cache.invalidations;
    }

    start = Clock::now();
    std::optional<Outcome> audited =
        guarded(cell, rep, [&] { return run_composed(w, cell, true, nullptr); });
    audited_wall += seconds_since(start);
    if (!audited) {
      audit_clean = false;
      continue;
    }
    audit_s += audited->audit_s;
    for (const std::string& v : audited->audit_violations) {
      audit_clean = false;
      rep.problem(cell.name + " audit: " + v);
    }
    if (ref[c] && !same_simulation(*ref[c], *audited, &why)) {
      rep.problem(cell.name + ": audited run differs (" + why + ")");
    }
  }
  double ref_total = 0.0;
  for (double x : ref_wall) ref_total += x;
  std::printf("traced composition and audited run match the harness: %s\n",
              rep.problems.empty() ? "yes (events, segments, bytes, CCTs)" : "NO");
  std::printf("audit (byte conservation + reduction ledger): %s, drain check "
              "%.4f s\n",
              audit_clean ? "clean" : "VIOLATIONS", audit_s);

  // 4. Per-layer metrics.
  const double residual = std::max(0.0, run_s - tr.covered_s());
  const double net_s = tr.network_self_s();
  const double dp_s = tr.self_s(Layer::DataPlane);
  const double control_s = tr.self_s(Layer::Submit) + tr.self_s(Layer::Delivery) +
                           tr.self_s(Layer::Delta) + tr.self_s(Layer::Recover);
  const double in_run_workload = tr.self_s(Layer::Workload);
  const double flow_self = flow ? dp_s + residual : 0.0;
  const auto share = [run_s](double s) { return run_s > 0 ? s / run_s : 0.0; };
  const double collectives = static_cast<double>(w.collectives());
  const std::uint64_t net_events = tr.network_events();

  rep.add("topology.build_s", w.build_s, "s");
  rep.add("workload.inputs_s", w.inputs_s + in_run_workload, "s");
  rep.add("queue.events", static_cast<double>(sum.events), "count");
  rep.add("queue.residual_s", residual, "s");
  rep.add("queue.ns_per_event",
          sum.events ? residual / static_cast<double>(sum.events) * 1e9 : 0.0, "ns");
  rep.add("queue.pending_peak", static_cast<double>(tr.pending_peak()), "count");
  rep.add("network.dispatch_s", net_s, "s");
  rep.add("network.ns_per_event",
          net_events ? net_s / static_cast<double>(net_events) * 1e9 : 0.0, "ns");
  rep.add("network.segments", flow ? 0.0 : static_cast<double>(sum.segments), "count");
  rep.add("network.segments_lost", static_cast<double>(sum.segments_lost), "count");
  rep.add("network.ecn_marks", static_cast<double>(sum.ecn_marks), "count");
  rep.add("network.pfc_pauses", static_cast<double>(sum.pfc_pauses), "count");
  rep.add("dataplane.api_s", dp_s, "s");
  rep.add("dataplane.calls", static_cast<double>(tr.calls(Layer::DataPlane)), "count");
  rep.add("flow.recomputes", static_cast<double>(sum.flow_recomputes), "count");
  rep.add("flow.recomputes_per_collective",
          static_cast<double>(sum.flow_recomputes) / collectives, "count");
  rep.add("flow.self_s", flow_self, "s");
  rep.add("flow.us_per_recompute",
          sum.flow_recomputes
              ? flow_self / static_cast<double>(sum.flow_recomputes) * 1e6
              : 0.0,
          "us");
  rep.add("control.submit_s", tr.self_s(Layer::Submit), "s");
  rep.add("control.submits", static_cast<double>(tr.calls(Layer::Submit)), "count");
  rep.add("control.delivery_s", tr.self_s(Layer::Delivery), "s");
  rep.add("control.deliveries", static_cast<double>(tr.calls(Layer::Delivery)), "count");
  rep.add("control.plan_hit_rate", sum.plan_cache.hit_rate(), "ratio");
  rep.add("control.plan_repairs", static_cast<double>(sum.plan_cache.repairs), "count");
  rep.add("control.plan_evictions",
          static_cast<double>(sum.plan_cache.invalidations), "count");
  rep.add("control.delta_s", tr.self_s(Layer::Delta), "s");
  rep.add("control.deltas", static_cast<double>(tr.calls(Layer::Delta)), "count");
  rep.add("control.recover_s", tr.self_s(Layer::Recover), "s");
  rep.add("control.recovered_deliveries", static_cast<double>(sum.recovered), "count");
  rep.add("faults.pairs_down", static_cast<double>(sum.fault_downs), "count");
  rep.add("faults.pairs_up", static_cast<double>(sum.fault_ups), "count");
  rep.add("share.queue", flow ? 0.0 : share(residual), "ratio");
  rep.add("share.network", flow ? 0.0 : share(net_s + dp_s), "ratio");
  rep.add("share.flow", share(flow_self), "ratio");
  rep.add("share.control", share(control_s), "ratio");
  rep.add("share.workload", share(in_run_workload), "ratio");
  rep.add("telemetry.overhead_frac",
          ref_total > 0 ? audited_wall / ref_total - 1.0 : 0.0, "ratio");
  rep.add("telemetry.audit_s", audit_s, "s");
  rep.add("trace.overhead_frac",
          ref_total > 0 ? traced_wall / ref_total - 1.0 : 0.0, "ratio");

  // 5. Side runs, each on the workload it belongs to; zero elsewhere.
  if (a.workload == "fig5-packet") {
    fig5_side_runs(w, ref, ref_wall, rep);
  } else {
    rep.add("flow.cct_err_pct", 0.0, "%");
    rep.add("flow.speedup_vs_packet", 0.0, "ratio");
    rep.add("sharded.speedup_2w", 0.0, "ratio");
    rep.add("sharded.speedup_4w", 0.0, "ratio");
    rep.add("sharded.windows_parallel_frac", 0.0, "ratio");
  }
  if (a.workload == "fig7-flap") {
    fig7_side_runs(w, ref, rep);
  } else {
    rep.add("sweep.speedup_4t", 0.0, "ratio");
  }

  std::printf("host time split of run() (%.3f s traced, %.3f s untraced "
              "harness):\n",
              run_s, ref_total);
  std::printf("  queue %.1f%%  network %.1f%%  flow %.1f%%  control %.1f%%  "
              "workload %.1f%%\n",
              100 * (flow ? 0.0 : share(residual)),
              100 * (flow ? 0.0 : share(net_s + dp_s)), 100 * share(flow_self),
              100 * share(control_s), 100 * share(in_run_workload));
  if (!a.trace_out.empty()) write_trace(a.trace_out, a, tr);
  return rep;
}

void print_report(const Report& rep) {
  for (const Metric& m : rep.metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu collectives, failed %llu\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace peelbench

int main(int argc, char** argv) {
  using namespace peelbench;
  const Args args = parse_args(argc, argv);
  print_fingerprint();
  try {
    const Report rep = args.trace ? run_traced(args) : run_untraced(args);
    print_report(rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "peelbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
