// The benchmark's workloads. Each run generates its inputs from the seed,
// sets the index up (timed, several times), drives it with closed-loop
// clients through the public API, checks every answer it samples, and
// returns its metrics: the end-to-end ones from an untraced pass, and with
// `trace` the per-layer ones from spans the benchmark records around its
// own calls into each module.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // checkpoint and WAL files
  std::string spans_path;   // span dump of the traced pass ("" = none)
  std::string cache_dir;    // generated collections kept across runs ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // correctness failures
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable detail (sample counts)
};

bool KnownWorkload(const std::string& name);

/// Runs one workload. A non-OK status means the benchmark itself could not
/// run (setup failed); correctness failures land in outcome->violations.
ssr::Status RunWorkload(const RunOptions& options, RunOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
