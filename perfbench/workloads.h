// The benchmark's workloads: fm-n64 and oracle-n128 (one large engine each,
// closed loop of timed beats) and chaos-net (a chaos campaign over the
// net/* cells, closed loop of sweep batches).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // false: end-to-end metrics from an untraced run. true: per-layer
  // metrics from a traced rerun of the same inputs, checked against the
  // untraced run's deterministic outputs.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Sample counts behind the beat_ms and unit_ms percentiles.
  std::uint64_t beat_samples = 0;
  std::uint64_t unit_samples = 0;
  // Why `correct` is false, for stderr.
  std::vector<std::string> problems;
};

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Runs one workload. Throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& o);

}  // namespace perfbench
