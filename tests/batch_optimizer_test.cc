#include "service/batch_optimizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "baselines/dp.h"
#include "core/rmq.h"
#include "service/thread_pool.h"

namespace moqo {
namespace {

OptimizerFactory RmqFactory(int max_iterations) {
  return [max_iterations] {
    RmqConfig config;
    config.max_iterations = max_iterations;
    return std::make_unique<Rmq>(config);
  };
}

std::vector<BatchTask> SmallBatch(int n, int tables,
                                  int64_t deadline_micros = 0) {
  GeneratorConfig generator;
  generator.num_tables = tables;
  return GenerateBatch(n, generator, /*master_seed=*/2016, deadline_micros);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitCanBeCalledRepeatedly) {
  ThreadPool pool(2);
  pool.Wait();  // empty pool: returns immediately
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(GenerateBatchTest, IsDeterministicAndFansOutSeeds) {
  std::vector<BatchTask> a = SmallBatch(5, 6);
  std::vector<BatchTask> b = SmallBatch(5, 6);
  ASSERT_EQ(a.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a[static_cast<size_t>(i)].seed, b[static_cast<size_t>(i)].seed);
    for (int j = 0; j < i; ++j) {
      EXPECT_NE(a[static_cast<size_t>(i)].seed,
                a[static_cast<size_t>(j)].seed);
    }
  }
}

TEST(BatchOptimizerTest, EmptyBatchReturnsEmptyReport) {
  BatchConfig config;
  config.num_threads = 4;
  BatchOptimizer batch(config, RmqFactory(10));
  BatchReport report = batch.Run({});
  EXPECT_TRUE(report.tasks.empty());
  EXPECT_EQ(report.total_frontier, 0u);
  EXPECT_EQ(report.max_frontier, 0u);
}

// The core determinism guarantee: identical task seeds and iteration budgets
// produce bitwise-identical frontiers regardless of the thread count.
TEST(BatchOptimizerTest, FrontiersIdenticalAcrossThreadCounts) {
  std::vector<BatchTask> tasks = SmallBatch(8, 6);

  BatchConfig single;
  single.num_threads = 1;
  BatchReport reference = BatchOptimizer(single, RmqFactory(25)).Run(tasks);

  BatchConfig parallel;
  parallel.num_threads = 8;
  BatchReport wide = BatchOptimizer(parallel, RmqFactory(25)).Run(tasks);

  ASSERT_EQ(reference.tasks.size(), wide.tasks.size());
  for (const BatchTaskResult& task : reference.tasks) {
    EXPECT_FALSE(task.frontier.empty());
  }
  BatchComparison cmp = CompareToReference(reference, wide);
  EXPECT_TRUE(cmp.identical);
  EXPECT_DOUBLE_EQ(cmp.max_alpha, 1.0);
  EXPECT_DOUBLE_EQ(cmp.mean_alpha, 1.0);
}

TEST(BatchOptimizerTest, RepeatedRunsAreDeterministic) {
  std::vector<BatchTask> tasks = SmallBatch(4, 6);
  BatchConfig config;
  config.num_threads = 3;
  BatchOptimizer batch(config, RmqFactory(15));
  BatchComparison cmp = CompareToReference(batch.Run(tasks), batch.Run(tasks));
  EXPECT_TRUE(cmp.identical);
}

// A task with a wall-clock deadline must return promptly once it expires,
// even mid-optimization on a large query. The slack absorbs scheduler noise
// and sanitizer overhead; it is far below the runtime of an unbounded run.
TEST(BatchOptimizerTest, HonorsTaskDeadlines) {
  constexpr int64_t kDeadlineMicros = 100 * 1000;
  std::vector<BatchTask> tasks = SmallBatch(4, 18, kDeadlineMicros);
  BatchConfig config;
  config.num_threads = 2;
  BatchOptimizer batch(config, RmqFactory(/*max_iterations=*/0));
  BatchReport report = batch.Run(tasks);
  ASSERT_EQ(report.tasks.size(), 4u);
  for (const BatchTaskResult& task : report.tasks) {
    EXPECT_TRUE(task.had_deadline);
    EXPECT_LT(task.optimize_millis, 2000.0);
  }
}

// hold_full_window keeps each slot occupied for the full optimization
// window: two windows on one thread take at least two windows of wall time.
TEST(BatchOptimizerTest, HoldFullWindowOccupiesSlotUntilDeadline) {
  constexpr int64_t kWindowMicros = 50 * 1000;
  std::vector<BatchTask> tasks = SmallBatch(2, 4, kWindowMicros);
  BatchConfig config;
  config.num_threads = 1;
  config.hold_full_window = true;
  BatchOptimizer batch(config, RmqFactory(1));
  BatchReport report = batch.Run(tasks);
  EXPECT_GE(report.wall_millis, 95.0);
  for (const BatchTaskResult& task : report.tasks) {
    EXPECT_GE(task.elapsed_millis, 45.0);
    EXPECT_GE(task.elapsed_millis, task.optimize_millis);
  }
}

TEST(BatchOptimizerTest, ReportAggregatesFrontierSizes) {
  std::vector<BatchTask> tasks = SmallBatch(3, 5);
  BatchConfig config;
  BatchOptimizer batch(config, RmqFactory(10));
  BatchReport report = batch.Run(tasks);
  size_t total = 0;
  size_t max = 0;
  for (const BatchTaskResult& task : report.tasks) {
    total += task.frontier.size();
    max = std::max(max, task.frontier.size());
  }
  EXPECT_EQ(report.total_frontier, total);
  EXPECT_EQ(report.max_frontier, max);
  EXPECT_GT(report.total_frontier, 0u);
  EXPECT_FALSE(report.Summary().empty());
}

TEST(PercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 0.5), 5.0);
  std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.95), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 4.0);
}

// Regression: an empty sample — e.g. every submission of a batch bounced
// off a full admission window under AdmissionPolicy::kReject, so no
// optimize-time was ever recorded — must yield 0.0 at every quantile, not
// an out-of-bounds read.
TEST(PercentileTest, EmptySampleIsZeroAtEveryQuantile) {
  for (double q : {0.0, 0.5, 0.95, 1.0, -3.0, 7.0}) {
    EXPECT_DOUBLE_EQ(Percentile({}, q), 0.0) << "q=" << q;
  }
  // Aggregating a report with no tasks exercises the same path.
  BatchReport empty;
  empty.Aggregate();
  EXPECT_DOUBLE_EQ(empty.p50_optimize_millis, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95_optimize_millis, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_frontier, 0.0);
  EXPECT_DOUBLE_EQ(empty.deadline_hit_rate, 1.0);
  EXPECT_FALSE(empty.Summary().empty());
}

// A report whose every slot was migrated away aggregates like an empty one
// (the destination scheduler reports those tasks).
TEST(BatchReportTest, MigratedSlotsAreExcludedFromAggregates) {
  BatchReport report;
  BatchTaskResult stub;
  stub.index = 0;
  stub.migrated = true;
  stub.had_deadline = true;
  stub.optimize_millis = 123.0;
  report.tasks.push_back(stub);
  BatchTaskResult real;
  real.index = 1;
  real.optimize_millis = 2.0;
  real.frontier.resize(3);
  report.tasks.push_back(real);
  report.Aggregate();
  EXPECT_EQ(report.migrated_tasks, 1u);
  EXPECT_EQ(report.deadline_tasks, 0u);
  EXPECT_EQ(report.total_frontier, 3u);
  EXPECT_DOUBLE_EQ(report.mean_frontier, 3.0);
  EXPECT_DOUBLE_EQ(report.p50_optimize_millis, 2.0);
  EXPECT_NE(report.Summary().find("migrated away: 1"), std::string::npos);
}

// A gave-up run (DP abandoning an oversized query) must never be recorded
// as a deadline hit, even though its session reports Done well inside the
// window. Regression for the hit-rate bug where a 25-table DP task counted
// as a hit with an empty frontier.
TEST(BatchOptimizerTest, GaveUpDpRunIsNeverADeadlineHit) {
  GeneratorConfig generator;
  generator.num_tables = 25;  // beyond DpConfig::max_tables
  std::vector<BatchTask> tasks =
      GenerateBatch(1, generator, /*master_seed=*/3, /*deadline_micros=*/
                    60 * 1000 * 1000);
  BatchConfig config;
  BatchReport report = BatchOptimizer(config, [] {
                         return std::make_unique<DpOptimizer>();
                       }).Run(tasks);
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_TRUE(report.tasks[0].gave_up);
  EXPECT_TRUE(report.tasks[0].frontier.empty());
  EXPECT_TRUE(report.tasks[0].had_deadline);
  EXPECT_FALSE(report.tasks[0].deadline_hit);
  EXPECT_EQ(report.deadline_tasks, 1u);
  EXPECT_EQ(report.deadline_hits, 0u);
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 0.0);
}

TEST(BatchReportTest, SummaryReportsPercentilesAndTotals) {
  BatchReport report;
  report.num_threads = 2;
  report.wall_millis = 10.0;
  for (int i = 0; i < 4; ++i) {
    BatchTaskResult task;
    task.index = i;
    task.optimize_millis = static_cast<double>(i + 1);
    task.frontier.resize(static_cast<size_t>(i));
    report.tasks.push_back(std::move(task));
  }
  report.Aggregate();
  EXPECT_EQ(report.total_frontier, 6u);
  EXPECT_EQ(report.max_frontier, 3u);
  EXPECT_DOUBLE_EQ(report.mean_frontier, 1.5);
  EXPECT_DOUBLE_EQ(report.p50_optimize_millis, 2.0);
  EXPECT_DOUBLE_EQ(report.p95_optimize_millis, 4.0);

  std::string summary = report.Summary();
  EXPECT_NE(summary.find("4 tasks on 2 thread(s)"), std::string::npos);
  EXPECT_NE(summary.find("p50 2"), std::string::npos);
  EXPECT_NE(summary.find("p95 4"), std::string::npos);
}

TEST(CanonicalFrontierTest, SortsLexicographically) {
  // CanonicalFrontier is what makes bitwise comparison order-insensitive;
  // verify the ordering contract directly on cost vectors via a batch run.
  std::vector<BatchTask> tasks = SmallBatch(1, 6);
  BatchConfig config;
  BatchOptimizer batch(config, RmqFactory(20));
  BatchReport report = batch.Run(tasks);
  ASSERT_EQ(report.tasks.size(), 1u);
  const std::vector<CostVector>& frontier = report.tasks[0].frontier;
  for (size_t i = 1; i < frontier.size(); ++i) {
    const CostVector& prev = frontier[i - 1];
    const CostVector& cur = frontier[i];
    bool less_or_equal = prev[0] < cur[0] ||
                         (prev[0] == cur[0] && prev[1] <= cur[1]);
    EXPECT_TRUE(less_or_equal) << "frontier not in canonical order at " << i;
  }
}

}  // namespace
}  // namespace moqo
