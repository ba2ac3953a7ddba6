// The benchmark's workloads. Each fills `result` with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run) and returns
// 0, or returns a non-zero exit code with `error` set when it cannot run at
// all (missing or mismatched references, a service that does not start).
#ifndef MOQO_PERFBENCH_WORKLOADS_H_
#define MOQO_PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace moqo {
namespace perfbench {

/// rmq_paper_scale: closed loop, one RmqSession at a time over the
/// paper-scale pool.
int RunRmqPaperScale(const Options& options, RunResult* result,
                     std::string* error);

/// service_unique (repeat = false) and service_repeat (repeat = true):
/// open-loop traffic through a ShardRouter.
int RunServiceWorkload(const Options& options, bool repeat, RunResult* result,
                       std::string* error);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_WORKLOADS_H_
