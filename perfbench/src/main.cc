// perfbench: wall-clock benchmark of the sharded set-similarity index.
//
//   perfbench --workload near_dup --seed 1 --seconds 10 --trace 0
//             --scratch DIR [--spans FILE] [--cache DIR]
//   perfbench --selftest
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exit code 0 when the run completed (correct or not),
// 2 on bad arguments or a benchmark that could not run.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "stats.h"
#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--spans FILE] "
               "[--cache DIR]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

int SelfTest() {
  const auto failures = perfbench::SelfCheck();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "selftest FAILED: %s\n", f.c_str());
  }
  if (!failures.empty()) return 1;
  std::printf("selftest: statistics helpers ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--scratch") {
      opt.scratch_dir = value;
      have_scratch = true;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else if (arg == "--cache") {
      opt.cache_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !perfbench::KnownWorkload(opt.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_scratch) return Usage("missing --scratch");
  if (opt.seconds < 1) return Usage("--seconds must be >= 1");

  perfbench::RunOutcome out;
  const ssr::Status st = perfbench::RunWorkload(opt, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& v : out.violations) {
    std::printf("CORRECTNESS VIOLATION: %s\n", v.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
