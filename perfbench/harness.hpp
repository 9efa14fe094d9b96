// Shared pieces of the SurfOS end-to-end benchmark: sample sets with a
// sample-count guard, the harness's own span recorder, the result record
// every workload fills, and the FleetReport stream hash.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call in this process (the harness clock).
double now_us();

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Thrown when a run cannot report honestly: too few samples beyond a
/// percentile, a failed output check, a setup error.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A set of timing samples. Percentiles use the nearest-rank rule and
/// refuse to report unless at least ten samples lie beyond the rank.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  double sum() const;
  double mean() const { return empty() ? 0.0 : sum() / double(size()); }
  /// p in (0, 100). Throws BenchError naming `what` when fewer than ten
  /// samples lie beyond the percentile.
  double percentile(double p, const std::string& what) const;

 private:
  std::vector<double> values_;
};

/// One printed metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one workload run reports back to main().
struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the FleetReport stream with timing fields zeroed (0 where
  /// the workload has no report stream to hash).
  std::uint64_t report_hash = 0;
  std::size_t hashed_epochs = 0;
  /// Output checks: name -> failure detail (empty = passed).
  std::vector<std::pair<std::string, std::string>> checks;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.emplace_back(name, ok ? std::string() : detail);
  }
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    end_to_end[name] = {value, unit, samples};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
    per_layer[name] = {value, unit, samples};
  }
  /// p50 + a tail percentile of `s` under `name`.p50 / `name`.pNN.
  void e2e_pcts(const std::string& name, const Samples& s,
                const std::string& unit, double tail);
  void layer_pcts(const std::string& name, const Samples& s,
                  const std::string& unit, double tail);
};

/// The harness's own span recorder: spans around the benchmark's calls into
/// SurfOS, plus StepTrace stages attached as children of the epoch spans.
/// Off in untraced runs (every call is a no-op returning 0).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;  ///< Request / trace id, 0 when none.
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit SpanRecorder(bool on) : on_(on) {}
  bool on() const noexcept { return on_; }

  /// Opens a span as a child of the innermost open span.
  std::uint64_t begin(const char* name, std::uint64_t trace = 0);
  void end(std::uint64_t id);
  /// Records a finished span with explicit bounds under `parent`.
  std::uint64_t add(const char* name, std::uint64_t parent, double start_us,
                    double end_us, std::uint64_t trace = 0);

  /// Share of the summed wall time of spans named `root` that no descendant
  /// span covers (union of leaf intervals, per root).
  double uncovered_share(const std::string& root) const;
  /// Writes the spans as Chrome trace-event JSON.
  void write_json(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Indices of open spans (a stack).
};

/// RAII span on a recorder (no-op when the recorder is off).
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::uint64_t trace = 0)
      : rec_(rec), id_(rec.begin(name, trace)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// Folds a FleetReport into a running FNV-1a hash after zeroing every
/// wall-clock field, so the hash depends only on what the control plane
/// decided, never on how long it took.
std::uint64_t hash_report(std::uint64_t h, surfos::FleetReport report);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Sum of the named StepTrace stages over every site of a report, and the
/// plan remainder (total minus named stages), in microseconds.
struct StageTimes {
  double schedule = 0, plan = 0, optimize = 0, actuate = 0, measure = 0,
         total = 0;
  void add(const surfos::orch::StepTrace& t);
};

/// Wall-time estimate of each stage of one epoch's step_all: the stages of
/// its slowest shard, sharding the sites the way Fleet::step_all does (one
/// contiguous shard per pool thread, each stepped serially).
StageTimes stage_wall(const surfos::FleetReport& report, std::size_t threads);

/// Attaches stage wall times as consecutive child spans of the span `parent`
/// that starts at `start_us`.
void attach_stages(SpanRecorder& spans, std::uint64_t parent, double start_us,
                   const StageTimes& wall);

/// Cumulative StepTrace counts and stage times of a run's timed epochs.
struct ReportTotals {
  StageTimes stages;  ///< Summed over sites (CPU time).
  StageTimes wall;    ///< stage_wall() summed over epochs.
  std::uint64_t epochs = 0;
  std::uint64_t plans_fresh = 0, plans_reused = 0, evaluations = 0,
                optimizations = 0, config_writes = 0, element_updates = 0,
                writes_staged = 0, writes_coalesced = 0, writes_elided = 0;
  std::uint64_t tasks_measured = 0, tasks_met = 0;
  void add(const surfos::FleetReport& report, std::size_t threads);
};

/// Fills the orch / opt / hal per-layer metrics shared by every workload
/// from the run totals; stage shares are of `epoch_wall_us`, the summed wall
/// time of the epochs the totals cover.
void layer_report_totals(RunResult& out, const ReportTotals& totals,
                         double epoch_wall_us);
/// sim.precompute.* from the process-wide store, relative to `base`.
void layer_precompute(RunResult& out,
                      const surfos::sim::PrecomputeStore::Stats& base);

/// Median of a few values (set-up timings: several complete set-ups per run,
/// the first measured from process start).
double median(std::vector<double> v);

/// Peak resident set size of this process, MiB (getrusage).
double peak_rss_mb();

/// One progress line on stderr, stamped with seconds since process start.
void progress(const std::string& what);

/// Quiets SurfOS logging the same way on every run (per-shed WARN lines
/// would otherwise land on the timed path).
void quiet_logs();

}  // namespace perfbench
