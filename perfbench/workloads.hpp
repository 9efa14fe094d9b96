// The benchmark workloads (see perfbench/README.md for why each
// exists and which layers it loads).
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

RunResult run_fleet_storm(const Options& opt, SpanRecorder& spans);
RunResult run_replan_sweep(const Options& opt, SpanRecorder& spans);

}  // namespace perfbench
