// Host-time attribution for the traced benchmark mode.
//
// Spans are opened by the benchmark around calls into the simulator's public
// interfaces (see compose.h) — never inside the program. Spans nest: a layer's
// self time is its span time minus the time of the spans it caused, less the
// tracer's own clock reads (calibrated when the tracer is created). Per-event
// spans (millions per run) are folded into per-layer totals as they close,
// and packet dispatch is sampled; only coarse phase spans (one per cell) are
// kept as records and written out when the benchmark ends.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"

namespace peelbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The src/ layer a span's time belongs to.
enum class Layer : std::uint8_t {
  Network,    ///< SimEventSink dispatch into Network::on_sim_event
  DataPlane,  ///< DataPlane calls (open/send/close/cancel/duplex/...)
  Delivery,   ///< the runner's delivery handler
  Submit,     ///< CollectiveRunner::submit*
  Delta,      ///< TopologyObserver -> CollectiveRunner::on_topology_delta
  Recover,    ///< CollectiveRunner::recover_all
  Workload,   ///< src/workload generators
  kCount,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// One coarse phase (a cell's run, a pass) with the phase that contains it.
struct PhaseRecord {
  std::string name;
  double start_s = 0.0;  ///< since the tracer was created
  double end_s = 0.0;
  int parent = -1;  ///< index into Tracer::phases, -1 = top level
};

class Tracer {
 public:
  Tracer() { calibrate(); }

  void begin(Layer layer) {
    if (queue_ != nullptr) pending_peak_ = std::max(pending_peak_, queue_->pending());
    stack_.push_back(Open{layer, Clock::now(), 0.0, 0});
  }

  void end() {
    const Open open = stack_.back();
    stack_.pop_back();
    const double d = seconds_since(open.start);
    const auto i = static_cast<std::size_t>(open.layer);
    // Self time less the tracer's own cost: the part of this span's clock
    // reads inside its interval, and the part of each child's outside it.
    self_[i] += d - open.child - cost_in_ - static_cast<double>(open.children) * cost_out_;
    ++calls_[i];
    ++spans_;
    if (!stack_.empty()) {
      stack_.back().child += d;
      ++stack_.back().children;
    }
  }

  /// Network dispatch is per event, so only one event in kSampleEvery gets a
  /// span (chosen pseudo-randomly, so periodic event patterns cannot alias);
  /// network_self_s() scales the sampled time up to every event.
  [[nodiscard]] bool sample_network() {
    ++network_events_;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return (rng_ & (kSampleEvery - 1)) == 0;
  }
  static constexpr std::uint64_t kSampleEvery = 16;

  /// Queue whose pending() is sampled at every span start (null = none).
  void watch(const peel::EventQueue* queue) noexcept { queue_ = queue; }

  [[nodiscard]] double self_s(Layer l) const noexcept {
    return self_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t calls(Layer l) const noexcept {
    return calls_[static_cast<std::size_t>(l)];
  }
  /// Events dispatched through the timed sink, sampled or not.
  [[nodiscard]] std::uint64_t network_events() const noexcept {
    return network_events_;
  }
  /// Network self time extrapolated from the sampled dispatches.
  [[nodiscard]] double network_self_s() const noexcept {
    const std::uint64_t sampled = calls(Layer::Network);
    return sampled == 0 ? 0.0
                        : self_s(Layer::Network) *
                              static_cast<double>(network_events_) /
                              static_cast<double>(sampled);
  }
  /// Self time of every layer (Network extrapolated) plus the tracer's own
  /// cost: subtracted from a run's wall time, what is left is the time no
  /// layer span covers (the event queue's own work).
  [[nodiscard]] double covered_s() const noexcept {
    double covered = network_self_s();
    for (std::size_t i = 0; i < kLayers; ++i) {
      if (static_cast<Layer>(i) != Layer::Network) covered += self_[i];
    }
    return covered + static_cast<double>(spans_) * (cost_in_ + cost_out_);
  }
  [[nodiscard]] std::size_t pending_peak() const noexcept { return pending_peak_; }

  int phase_begin(std::string name) {
    phases_.push_back(PhaseRecord{std::move(name), seconds_since(origin_), 0.0,
                                  open_phase_});
    open_phase_ = static_cast<int>(phases_.size()) - 1;
    return open_phase_;
  }
  void phase_end(int phase) {
    phases_[static_cast<std::size_t>(phase)].end_s = seconds_since(origin_);
    open_phase_ = phases_[static_cast<std::size_t>(phase)].parent;
  }
  [[nodiscard]] const std::vector<PhaseRecord>& phases() const noexcept {
    return phases_;
  }

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    double child;
    std::uint32_t children;
  };

  /// Measures an empty span: the time it reports (cost inside its interval)
  /// and its full cost; the median of several batches of each.
  void calibrate() {
    constexpr int kBatches = 9;
    constexpr int kSpans = 20000;
    std::vector<double> inside, total;
    for (int b = 0; b < kBatches; ++b) {
      const double before = self_[0];
      const auto start = Clock::now();
      for (int s = 0; s < kSpans; ++s) {
        begin(Layer::Network);
        end();
      }
      total.push_back(seconds_since(start) / kSpans);
      inside.push_back((self_[0] - before) / kSpans);
    }
    std::sort(inside.begin(), inside.end());
    std::sort(total.begin(), total.end());
    cost_in_ = inside[kBatches / 2];
    cost_out_ = std::max(0.0, total[kBatches / 2] - cost_in_);
    self_ = {};
    calls_ = {};
    spans_ = 0;
  }

  std::vector<Open> stack_;
  std::array<double, kLayers> self_{};
  std::array<std::uint64_t, kLayers> calls_{};
  std::uint64_t spans_ = 0;
  double cost_in_ = 0.0;
  double cost_out_ = 0.0;
  std::uint64_t network_events_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  const peel::EventQueue* queue_ = nullptr;
  std::size_t pending_peak_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<PhaseRecord> phases_;
  int open_phase_ = -1;
};

/// RAII span; a null tracer makes it free (the untraced compositions).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// RAII phase record; a null tracer makes it free.
class Phase {
 public:
  Phase(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->phase_begin(std::move(name));
  }
  ~Phase() {
    if (tracer_ != nullptr) tracer_->phase_end(id_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace peelbench
