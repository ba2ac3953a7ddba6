// The repository benchmark. Run it through perfbench/run.py, which builds
// it; see perfbench/README.md for the workloads and metrics.
//
//   $ perfbench --workload=<rmq_paper_scale|service_unique|service_repeat>
//         --seed=<n> --seconds=<s> --trace=<0|1>
//
// Prints an "env:" line, a "samples:" line, and as its last line one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the workload's layers with
// --trace 1 (run.py reports the layers a workload bypasses as 0). Exits 2
// without a result when the workload cannot run (bad flags, unoptimized
// build, missing or mismatched reference frontiers, a shard server that
// does not start).
#include <cstdio>
#include <string>

#include "common.h"
#include "common/flags.h"
#include "workloads.h"

using namespace moqo;
using namespace moqo::perfbench;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  Options options;
  options.workload = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", -1);
  const int64_t seconds = flags.GetInt("seconds", 0);
  const int64_t trace = flags.GetInt("trace", -1);
  if (options.workload.empty() || seed < 0 || seconds < 1 || seconds > 3600 ||
      (trace != 0 && trace != 1) || !flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<name> --seed=<n> "
                 "--seconds=<1..3600> --trace=<0|1> [--references=<file>] "
                 "[--out-dir=<dir>] [--commit=<id>] [--source-digest=<hex>]\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = static_cast<int>(seconds);
  options.trace = trace == 1;
  options.references = flags.GetString("references", options.references);
  options.out_dir = flags.GetString("out-dir", options.out_dir);
  options.commit = flags.GetString("commit", options.commit);
  options.source_digest =
      flags.GetString("source-digest", options.source_digest);
  std::string error;
  if (!OptimizedBuild(&error)) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 error.c_str());
    return 2;
  }
  PrintEnvironment(options);
  RunResult result;
  int rc = 0;
  if (options.workload == "rmq_paper_scale") {
    rc = RunRmqPaperScale(options, &result, &error);
  } else if (options.workload == "service_unique" ||
             options.workload == "service_repeat") {
    rc = RunServiceWorkload(options, options.workload == "service_repeat",
                            &result, &error);
  } else {
    error = "unknown workload " + options.workload;
    rc = 2;
  }
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return rc;
  }
  if (result.failed > 0) result.correct = false;
  PrintResult(result);
  return 0;
}
