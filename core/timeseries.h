#pragma once

// Periodic metrics sampling — the `timeline` array in BENCH_*.json.
//
// A MetricsSampler runs one background thread that, every `interval`,
// snapshots the live per-worker TxStats (plus any registered queue-depth
// gauges) into a cumulative Sample. Workers register their TxStats through
// ScopedStatsSource — one central hook in run_worker_pool covers every
// driver — and the open-loop driver additionally registers a
// ScopedDepthGauge for its admission-queue occupancy.
//
// The sampler reads live counters WHILE workers increment them, with no
// data race: every TxStats counter is a single-writer relaxed atomic (the
// owner stores, TxStats::merge loads through std::atomic_ref), so each
// field is individually torn-free; a sample may see commit counts from an
// instant apart across fields, which is exactly the precision an interval
// timeline needs. What must be exact is monotonicity across worker
// lifetimes: when a source unregisters, its final counters fold into a
// retired accumulator, so cumulative values never go backwards as worker
// pools come and go.
//
// timeline_points() converts the cumulative samples into per-interval
// report::Points (x = seconds since sampling started): ops_per_sec and
// abort_rate over the interval, cumulative commit/abort totals, per-path
// commit deltas, per-cause abort deltas, and the instantaneous queue depth.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "core/stats.h"

namespace rhtm::timeseries {

/// One interval snapshot. Stats are CUMULATIVE (retired + live at sample
/// time); timeline_points() differences consecutive samples.
struct Sample {
  double t = 0;  ///< seconds since start()
  TxStats stats;
  std::uint64_t queue_depth = 0;  ///< sum over registered gauges, instantaneous
  std::size_t live_sources = 0;
};

class MetricsSampler {
 public:
  explicit MetricsSampler(double interval_seconds)
      : interval_(interval_seconds > 0.0005 ? interval_seconds : 0.0005) {}

  ~MetricsSampler() { stop(); }
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  void start() {
    std::lock_guard<std::mutex> g(mu_);
    if (running_) return;
    running_ = true;
    t0_ = std::chrono::steady_clock::now();
    thread_ = std::thread([this] { run(); });
  }

  /// Joins the sampling thread after recording one final sample, so the
  /// timeline always covers the tail of the run.
  void stop() {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!running_) return;
      running_ = false;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> g(mu_);
    samples_.push_back(sample_locked());
  }

  void register_stats(const TxStats* s) {
    std::lock_guard<std::mutex> g(mu_);
    live_.push_back(s);
  }

  /// Folds the source's final counters into the retired accumulator —
  /// cumulative sample values stay monotone across worker-pool lifetimes.
  void unregister_stats(const TxStats* s) {
    std::lock_guard<std::mutex> g(mu_);
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] == s) {
        live_[i] = live_.back();
        live_.pop_back();
        retired_.merge(*s);
        return;
      }
    }
  }

  void register_gauge(const std::atomic<std::uint64_t>* g) {
    std::lock_guard<std::mutex> lk(mu_);
    gauges_.push_back(g);
  }

  void unregister_gauge(const std::atomic<std::uint64_t>* g) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      if (gauges_[i] == g) {
        gauges_[i] = gauges_.back();
        gauges_.pop_back();
        return;
      }
    }
  }

  [[nodiscard]] std::vector<Sample> samples() const {
    std::lock_guard<std::mutex> g(mu_);
    return samples_;
  }

  [[nodiscard]] double interval() const { return interval_; }

  /// Per-interval timeline for BenchReport::timeline. x = seconds since
  /// start; rates are over the interval ending at x.
  [[nodiscard]] std::vector<report::Point> timeline_points() const {
    const std::vector<Sample> snap = samples();
    std::vector<report::Point> out;
    out.reserve(snap.size());
    Sample prev;  // zero baseline
    for (const Sample& s : snap) {
      const double dt = s.t - prev.t;
      const TxStats d = tx_stats_delta(s.stats, prev.stats);
      report::Point p;
      p.x = s.t;
      p.set("ops_per_sec", dt > 0 ? static_cast<double>(d.commits) / dt : 0.0);
      const double att = static_cast<double>(d.commits + d.aborts);
      p.set("abort_rate", att > 0 ? static_cast<double>(d.aborts) / att : 0.0);
      p.set("commits_total", static_cast<double>(s.stats.commits));
      p.set("aborts_total", static_cast<double>(s.stats.aborts));
      p.set("queue_depth", static_cast<double>(s.queue_depth));
      p.set("live_threads", static_cast<double>(s.live_sources));
      for (std::size_t i = 0; i < static_cast<std::size_t>(ExecPath::kCount); ++i) {
        if (d.commits_by_path[i] != 0) {
          p.set(std::string("commits_") + to_string(static_cast<ExecPath>(i)),
                static_cast<double>(d.commits_by_path[i]));
        }
      }
      for (std::size_t i = 0; i < static_cast<std::size_t>(AbortCause::kCount); ++i) {
        if (d.aborts_by_cause[i] != 0) {
          p.set(std::string("aborts_") + to_string(static_cast<AbortCause>(i)),
                static_cast<double>(d.aborts_by_cause[i]));
        }
      }
      out.push_back(std::move(p));
      prev = s;
    }
    return out;
  }

 private:
  [[nodiscard]] Sample sample_locked() const {
    Sample s;
    s.t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    s.stats = retired_;
    for (const TxStats* src : live_) s.stats.merge(*src);
    for (const auto* g : gauges_) s.queue_depth += g->load(std::memory_order_relaxed);
    s.live_sources = live_.size();
    return s;
  }

  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    while (running_) {
      cv_.wait_for(lk, std::chrono::duration<double>(interval_),
                   [this] { return !running_; });
      if (!running_) break;
      samples_.push_back(sample_locked());
    }
  }

  const double interval_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  std::chrono::steady_clock::time_point t0_{};
  std::vector<const TxStats*> live_;
  std::vector<const std::atomic<std::uint64_t>*> gauges_;
  TxStats retired_;
  std::vector<Sample> samples_;
};

/// The process-wide sampler the drivers report into. run_all installs one
/// per scenario when --timeline is set; null means sampling is off and the
/// scoped helpers below are no-ops.
inline std::atomic<MetricsSampler*> g_sampler{nullptr};

/// RAII registration of one worker's TxStats with the active sampler.
/// Capture the sampler once: registration and unregistration must pair
/// against the same instance even if g_sampler changes mid-run.
class ScopedStatsSource {
 public:
  explicit ScopedStatsSource(const TxStats* s)
      : sampler_(g_sampler.load(std::memory_order_acquire)), stats_(s) {
    if (sampler_ != nullptr) sampler_->register_stats(stats_);
  }
  ~ScopedStatsSource() {
    if (sampler_ != nullptr) sampler_->unregister_stats(stats_);
  }
  ScopedStatsSource(const ScopedStatsSource&) = delete;
  ScopedStatsSource& operator=(const ScopedStatsSource&) = delete;

 private:
  MetricsSampler* sampler_;
  const TxStats* stats_;
};

/// RAII queue-depth gauge (open-loop admission queue). The owner stores
/// into value(); the sampler reads it each interval.
class ScopedDepthGauge {
 public:
  ScopedDepthGauge() : sampler_(g_sampler.load(std::memory_order_acquire)) {
    if (sampler_ != nullptr) sampler_->register_gauge(&value_);
  }
  ~ScopedDepthGauge() {
    if (sampler_ != nullptr) sampler_->unregister_gauge(&value_);
  }
  ScopedDepthGauge(const ScopedDepthGauge&) = delete;
  ScopedDepthGauge& operator=(const ScopedDepthGauge&) = delete;

  void set(std::uint64_t depth) { value_.store(depth, std::memory_order_relaxed); }

 private:
  MetricsSampler* sampler_;
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace rhtm::timeseries
