// surfos_perfbench: one workload of the SurfOS end-to-end benchmark per
// process. perfbench/run.py builds this binary, runs it in a fresh process
// per workload and run, and turns its last output line into the benchmark
// result.
//
//   surfos_perfbench --workload fleet_storm|replan_sweep
//                    --seed N --seconds S [--trace 0|1] [--spans FILE]
//
// Prints one JSON line: the run's stamp (nproc, SIMD backend, pool
// threads), end-to-end and per-layer metrics with sample counts, attempted
// and failed operations, the output checks and the report-stream hash.
// Exits 2 when a run cannot report honestly (see BenchError).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: surfos_perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--spans FILE]\n");
  return 64;
}

void print_metrics(const char* key, const std::map<std::string, Metric>& m) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                first ? "" : ",", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
    first = false;
  }
  std::printf("}");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  now_us();  // anchor the harness clock at process start
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.seconds <= 0.0) {
    return usage();
  }

  quiet_logs();
  SpanRecorder spans(opt.trace);
  RunResult result;
  try {
    if (opt.workload == "fleet_storm") {
      result = run_fleet_storm(opt, spans);
    } else if (opt.workload == "replan_sweep") {
      result = run_replan_sweep(opt, spans);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
  if (opt.trace && !opt.spans_path.empty()) spans.write_json(opt.spans_path);

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  std::printf("\"stamp\":{\"nproc\":%u,\"simd\":\"%s\",\"threads\":%zu},",
              std::thread::hardware_concurrency(),
              surfos::util::simd::backend_name(
                  surfos::util::simd::active_backend()),
              surfos::util::global_pool().thread_count());
  std::printf("\"report_hash\":\"%016llx\",\"hashed_epochs\":%zu,",
              static_cast<unsigned long long>(result.report_hash),
              result.hashed_epochs);
  std::printf("\"attempted\":%llu,\"failed\":%llu,\"checks\":{",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    std::printf("%s\"%s\":\"%s\"", i ? "," : "",
                json_escape(result.checks[i].first).c_str(),
                json_escape(result.checks[i].second).c_str());
  }
  std::printf("},");
  print_metrics("end_to_end", result.end_to_end);
  std::printf(",");
  print_metrics("per_layer", result.per_layer);
  std::printf("}\n");
  return 0;
}
