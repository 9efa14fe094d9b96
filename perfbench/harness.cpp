#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "proto/serialize.hpp"
#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace perfbench {

double now_us() {
  static const Clock::time_point origin = Clock::now();
  return us_between(origin, Clock::now());
}

double Samples::sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::percentile(double p, const std::string& what) const {
  const std::size_t n = values_.size();
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  if (n == 0 || n - std::min(rank, n) < 10) {
    std::ostringstream msg;
    msg << what << ": " << n << " samples leave " << (n - std::min(rank, n))
        << " beyond p" << p << " (need 10)";
    throw BenchError(msg.str());
  }
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

namespace {
std::string tail_name(double tail) {
  std::ostringstream s;
  s << ".p" << tail;
  return s.str();
}
}  // namespace

void RunResult::e2e_pcts(const std::string& name, const Samples& s,
                         const std::string& unit, double tail) {
  e2e(name + ".p50", s.percentile(50, name), unit, s.size());
  e2e(name + tail_name(tail), s.percentile(tail, name), unit, s.size());
}

void RunResult::layer_pcts(const std::string& name, const Samples& s,
                           const std::string& unit, double tail) {
  // A layer the workload never calls reports 0 with 0 samples; a layer it
  // does call obeys the same sample-count guard as the end-to-end metrics.
  if (s.empty()) {
    layer(name + ".p50", 0.0, unit, 0);
    layer(name + tail_name(tail), 0.0, unit, 0);
    return;
  }
  layer(name + ".p50", s.percentile(50, name), unit, s.size());
  layer(name + tail_name(tail), s.percentile(tail, name), unit, s.size());
}

// --- Spans -------------------------------------------------------------------

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t trace) {
  if (!on_) return 0;
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.trace = trace;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!on_ || id == 0) return;
  spans_[id - 1].end_us = now_us();
  // Spans close innermost-first; tolerate a close out of order by popping
  // everything above it.
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    if (top == id - 1) break;
  }
}

std::uint64_t SpanRecorder::add(const char* name, std::uint64_t parent,
                                double start_us, double end_us,
                                std::uint64_t trace) {
  if (!on_) return 0;
  spans_.push_back({name, spans_.size() + 1, parent, trace, start_us, end_us});
  return spans_.back().id;
}

double SpanRecorder::uncovered_share(const std::string& root) const {
  // Children lists by parent id (ids are 1-based indices).
  std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    children[spans_[i].parent].push_back(i);
  }
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root) continue;
    const double a = spans_[i].start_us;
    const double b = spans_[i].end_us;
    // Leaf descendants' intervals, clipped to the root, then unioned.
    std::vector<std::pair<double, double>> leaves;
    std::vector<std::size_t> stack = children[spans_[i].id];
    while (!stack.empty()) {
      const std::size_t j = stack.back();
      stack.pop_back();
      const auto& kids = children[spans_[j].id];
      if (kids.empty()) {
        leaves.emplace_back(std::max(a, spans_[j].start_us),
                            std::min(b, spans_[j].end_us));
      } else {
        stack.insert(stack.end(), kids.begin(), kids.end());
      }
    }
    std::sort(leaves.begin(), leaves.end());
    double covered = 0.0;
    double reach = a;
    for (const auto& [s, e] : leaves) {
      const double lo = std::max(s, reach);
      if (e > lo) {
        covered += e - lo;
        reach = e;
      }
    }
    total += b - a;
    uncovered += (b - a) - covered;
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"trace\":\"%016llx\"}}%s\n",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

// --- Report hashing and totals -------------------------------------------------

namespace {
std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

void zero_times(surfos::orch::StepTrace& t) {
  t.schedule_us = t.optimize_us = t.actuate_us = t.measure_us = t.total_us =
      0.0;
}
}  // namespace

std::uint64_t hash_report(std::uint64_t h, surfos::FleetReport report) {
  zero_times(report.trace);
  for (auto& site : report.sites) zero_times(site.step.trace);
  return fnv1a(h, surfos::proto::to_wire(report));
}

void StageTimes::add(const surfos::orch::StepTrace& t) {
  schedule += t.schedule_us;
  optimize += t.optimize_us;
  actuate += t.actuate_us;
  measure += t.measure_us;
  total += t.total_us;
  plan += std::max(0.0, t.total_us - t.schedule_us - t.optimize_us -
                            t.actuate_us - t.measure_us);
}

StageTimes stage_wall(const surfos::FleetReport& report, std::size_t threads) {
  // Fleet::step_all splits the sites into one contiguous shard per pool
  // thread and steps each shard serially; the slowest shard sets the wall.
  const std::size_t n = report.sites.size();
  const std::size_t shards = std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(n, 1));
  StageTimes wall;
  for (std::size_t s = 0; s < shards; ++s) {
    StageTimes shard;
    for (std::size_t i = s * n / shards; i < (s + 1) * n / shards; ++i) {
      shard.add(report.sites[i].step.trace);
    }
    if (shard.total > wall.total) wall = shard;
  }
  return wall;
}

void attach_stages(SpanRecorder& spans, std::uint64_t parent, double start_us,
                   const StageTimes& wall) {
  if (!spans.on()) return;
  const std::pair<const char*, double> stages[] = {
      {"orch.schedule", wall.schedule}, {"orch.plan", wall.plan},
      {"orch.optimize", wall.optimize}, {"orch.actuate", wall.actuate},
      {"orch.measure", wall.measure}};
  double at = start_us;
  for (const auto& [name, us] : stages) {
    spans.add(name, parent, at, at + us);
    at += us;
  }
}

void ReportTotals::add(const surfos::FleetReport& report,
                       std::size_t threads) {
  ++epochs;
  for (const auto& site : report.sites) stages.add(site.step.trace);
  const StageTimes w = stage_wall(report, threads);
  wall.schedule += w.schedule;
  wall.plan += w.plan;
  wall.optimize += w.optimize;
  wall.actuate += w.actuate;
  wall.measure += w.measure;
  wall.total += w.total;
  const auto& t = report.trace;
  plans_fresh += t.plans_fresh;
  plans_reused += t.plans_reused;
  evaluations += t.objective_evaluations;
  optimizations += report.total_optimizations;
  config_writes += t.config_writes;
  element_updates += t.element_updates;
  writes_staged += t.writes_staged;
  writes_coalesced += t.writes_coalesced;
  writes_elided += t.writes_elided;
  for (const auto& site : report.sites) {
    for (const auto& task : site.step.tasks) {
      ++tasks_measured;
      if (task.goal_met) ++tasks_met;
    }
  }
}

void layer_report_totals(RunResult& out, const ReportTotals& t,
                         double epoch_wall_us) {
  const std::size_t n = t.epochs;
  const struct {
    const char* name;
    double cpu_us, wall_us;
  } stages[] = {{"schedule", t.stages.schedule, t.wall.schedule},
                {"plan", t.stages.plan, t.wall.plan},
                {"optimize", t.stages.optimize, t.wall.optimize},
                {"actuate", t.stages.actuate, t.wall.actuate},
                {"measure", t.stages.measure, t.wall.measure}};
  for (const auto& s : stages) {
    const std::string base = std::string("orch.") + s.name;
    out.layer(base + "_ms", s.cpu_us / 1000.0, "ms", n);
    out.layer(base + ".share",
              epoch_wall_us > 0.0 ? s.wall_us / epoch_wall_us : 0.0, "ratio",
              n);
  }
  out.layer("orch.plans_fresh", double(t.plans_fresh), "count", n);
  out.layer("orch.plans_reused", double(t.plans_reused), "count", n);
  out.layer("opt.evaluations", double(t.evaluations), "count", n);
  out.layer("opt.us_per_eval",
            t.evaluations ? t.stages.optimize / double(t.evaluations) : 0.0,
            "us", t.evaluations);
  out.layer("opt.evals_per_optimization",
            t.optimizations ? double(t.evaluations) / double(t.optimizations)
                            : 0.0,
            "count", t.optimizations);
  out.layer("hal.config_writes", double(t.config_writes), "count", n);
  out.layer("hal.element_updates", double(t.element_updates), "count", n);
  out.layer("hal.writes_staged", double(t.writes_staged), "count", n);
  out.layer("hal.writes_coalesced", double(t.writes_coalesced), "count", n);
  out.layer("hal.writes_elided", double(t.writes_elided), "count", n);
  out.layer("hal.arq.retransmissions",
            double(surfos::telemetry::MetricsRegistry::instance()
                       .counter("hal.arq.retransmissions")
                       .value()),
            "count", n);
}

void layer_precompute(RunResult& out,
                      const surfos::sim::PrecomputeStore::Stats& base) {
  const auto now = surfos::sim::PrecomputeStore::instance().stats();
  const double hits = double(now.hits - base.hits);
  const double misses = double(now.misses - base.misses);
  const auto lookups = static_cast<std::size_t>(hits + misses);
  out.layer("sim.precompute.hits", hits, "count", lookups);
  out.layer("sim.precompute.misses", misses, "count", lookups);
  out.layer("sim.precompute.hit_ratio",
            lookups ? hits / double(lookups) : 0.0, "ratio", lookups);
  out.layer("sim.precompute.evictions", double(now.evictions - base.evictions),
            "count", lookups);
  out.layer("sim.precompute.bytes", double(now.bytes), "bytes", 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void progress(const std::string& what) {
  std::fprintf(stderr, "[perfbench +%.2fs] %s\n", now_us() / 1e6, what.c_str());
}

void quiet_logs() { surfos::util::set_log_level(surfos::util::LogLevel::kError); }

}  // namespace perfbench
