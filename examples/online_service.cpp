// Online service demo: admit queries to an already-running deadline-aware
// scheduler and consume per-query futures as they complete.
//
//   $ ./examples/online_service
//
// Shows the OnlineScheduler lifecycle: Start() spins up the workers,
// Submit() admits a query at any time (arming its deadline at admission and
// returning a std::future for its result), Drain() waits out the admitted
// backlog, and Stop() returns the aggregate report — including the
// deadline-hit rate, the service-level headline that the EDF policy
// improves over FIFO. Two of the queries are checkpointed off the primary
// scheduler mid-run (Suspend) and re-admitted to a standby instance
// (Resume) — live migration; their original futures still deliver. Exits
// non-zero if any frontier diverges from a blocking single-thread
// reference (it must not: same seeds + same iteration budgets =>
// bitwise-identical frontiers under any policy, even across a migration).
#include <iostream>
#include <memory>
#include <vector>

#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"

using namespace moqo;

int main() {
  // Twelve 7-table queries, each bounded to 40 RMQ iterations. Half run
  // under a generous 2 s deadline, half without one.
  GeneratorConfig generator;
  generator.num_tables = 7;
  std::vector<BatchTask> workload =
      GenerateBatch(/*n=*/12, generator, /*master_seed=*/2016,
                    /*deadline_micros=*/0);
  for (size_t i = 0; i < workload.size(); i += 2) {
    workload[i].deadline_micros = 2 * 1000 * 1000;
  }

  OptimizerFactory make_rmq = [] {
    RmqConfig config;
    config.max_iterations = 40;
    return std::make_unique<Rmq>(config);
  };

  // An earliest-deadline-first service on two workers, with a bounded
  // admission window: at most 8 queries in flight, extra Submit()s block.
  OnlineConfig config;
  config.num_threads = 2;
  config.steps_per_slice = 2;
  config.policy = SchedulingPolicy::kEarliestDeadlineFirst;
  config.admission = AdmissionPolicy::kBlock;
  config.max_open = 8;
  OnlineScheduler service(config, make_rmq);
  service.Start();

  // Admission while the workers are already running; each ticket is a
  // future for that query's result.
  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : workload) {
    auto ticket = service.Submit(task);
    if (!ticket) {
      std::cerr << "query rejected\n";
      return 1;
    }
    tickets.push_back(std::move(*ticket));
  }

  // Live migration: drain two in-flight queries off the primary scheduler
  // — each suspension is a self-contained checkpoint of the session's
  // mid-run state — and re-admit them to a standby instance with the same
  // optimizer configuration. Their futures (handed out by the original
  // Submit) deliver the result from the standby, bit-for-bit the same as
  // if the queries had never moved.
  OnlineScheduler standby(config, make_rmq);
  standby.Start();
  int migrated = 0;
  // Odd indices are deadline-free, so EDF serves them last and they are
  // almost always still in flight when we get here.
  for (size_t index : {size_t{7}, size_t{11}}) {
    std::optional<SuspendedTask> suspended = service.Suspend(index);
    if (!suspended) continue;  // already finished: nothing to move
    if (!standby.Resume(*suspended)) {
      std::cerr << "standby rejected a migrated query\n";
      return 1;
    }
    std::cout << "query " << index << " migrated to the standby after "
              << suspended->state.steps << " steps\n";
    ++migrated;
  }

  // Note: result.index is the slot in the *reporting* scheduler — a
  // migrated query's result carries its standby-side index — so identify
  // queries by ticket position here.
  std::vector<BatchTaskResult> results;
  results.reserve(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    results.push_back(tickets[i].get());
    const BatchTaskResult& result = results.back();
    std::cout << "query " << i << ": " << result.frontier.size()
              << " Pareto plans, admitted at " << result.admit_millis
              << " ms, done " << result.elapsed_millis << " ms later"
              << (result.had_deadline
                      ? (result.deadline_hit ? " (deadline hit)"
                                             : " (deadline MISSED)")
                      : "")
              << "\n";
  }

  BatchReport report = service.Stop();
  standby.Stop();
  std::cout << "\n" << report.Summary();

  // The determinism contract: online EDF scheduling — including the two
  // migrated queries — must reproduce the blocking single-thread frontiers
  // bit for bit. Compare through the tickets: a migrated query's report
  // slot lives on the standby, but its future always has the real result.
  BatchConfig blocking;
  blocking.num_threads = 1;
  BatchReport reference = BatchOptimizer(blocking, make_rmq).Run(workload);
  bool identical = true;
  for (size_t i = 0; i < results.size(); ++i) {
    identical &= BitwiseEqual(results[i].frontier,
                              reference.tasks[i].frontier);
  }
  std::cout << "\nvs blocking single-thread reference (" << migrated
            << " migrated): frontiers "
            << (identical ? "bitwise identical" : "DIVERGED") << "\n";
  return identical ? 0 : 1;
}
