// Sharded-service throughput and correctness gate: the same query stream
// through (a) an unsharded OnlineScheduler reference, (b) a static N-shard
// ShardRouter, and (c) an elastic router that grows mid-stream (AddShard)
// and shrinks again (RemoveShard), rebalancing in-flight tasks through the
// wire format. All work is iteration-bounded, so the run gates on bitwise
// frontier identity:
//
//   * every static-router frontier == the unsharded reference frontier;
//   * every elastic-router frontier == the reference, with >= 1 rebalance
//     migration actually performed (guaranteed to be possible: see the
//     elastic run below);
//   * a mid-run checkpointed task, encoded to the wire and decoded on a
//     "different shard" (a fresh factory built only from the decoded
//     frame), finishes bitwise identical to its uninterrupted run.
//
// Throughput (queries/s) is reported for the unsharded and sharded runs —
// informational, never a gate: the interesting capacity axis (shards on
// separate machines) cannot be measured in one process, and CI runners
// have arbitrary core counts.
//
//   $ ./bench/shard_throughput [--queries=64] [--tables=6]
//         [--iterations=20] [--threads=2] [--shards=4]
//         [--virtual-nodes=64] [--grow-at=16] [--shrink-at=48]
//         [--pace-us=2000] [--seed=2016] [--json=out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"
#include "service/shard_router.h"
#include "service/wire.h"

using namespace moqo;

namespace {

struct RunOutcome {
  double wall_ms = 0.0;
  double queries_per_sec = 0.0;
  bool identical = true;
  size_t migrations = 0;
  size_t checkpointed_migrations = 0;
};

double QueriesPerSec(size_t queries, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : static_cast<double>(queries) * 1000.0 / wall_ms;
}

// A one-shot gate: Wait() blocks until Open(). Open() is idempotent.
class Latch {
 public:
  Latch() : opened_(promise_.get_future().share()) {}
  void Open() {
    if (!open_) {
      open_ = true;
      promise_.set_value();
    }
  }
  void Wait() const { opened_.wait(); }

 private:
  std::promise<void> promise_;
  std::shared_future<void> opened_;
  bool open_ = false;  // touched only by the thread that opens
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int queries = static_cast<int>(flags.GetInt("queries", 64));
  const int tables = static_cast<int>(flags.GetInt("tables", 6));
  const int iterations = static_cast<int>(flags.GetInt("iterations", 20));
  const int threads = static_cast<int>(flags.GetInt("threads", 2));
  const int shards = static_cast<int>(flags.GetInt("shards", 4));
  const int virtual_nodes =
      static_cast<int>(flags.GetInt("virtual-nodes", 64));
  const size_t grow_at = static_cast<size_t>(
      flags.GetInt("grow-at", queries / 4));
  const size_t shrink_at = static_cast<size_t>(
      flags.GetInt("shrink-at", 3 * queries / 4));
  const int64_t pace_us = flags.GetInt("pace-us", 2000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));
  const std::string json_path = flags.GetString("json", "");

  GeneratorConfig generator;
  generator.num_tables = tables;
  std::vector<BatchTask> tasks =
      GenerateBatch(queries, generator, seed, /*deadline_micros=*/0);

  OptimizerFactory make_rmq = [iterations] {
    RmqConfig config;
    config.max_iterations = iterations;
    return std::make_unique<Rmq>(config);
  };

  std::printf(
      "shard_throughput: %d queries x %d tables, %d RMQ iterations, "
      "%d shard(s) x %d thread(s), %d ring points/shard\n\n",
      queries, tables, iterations, shards, threads, virtual_nodes);

  // Unsharded reference: one OnlineScheduler over the same total worker
  // budget a single shard gets. Its report frontiers are the bitwise
  // yardstick for both router runs.
  OnlineConfig unsharded;
  unsharded.num_threads = threads;
  BatchReport reference;
  {
    OnlineScheduler service(unsharded, make_rmq);
    service.Start();
    for (const BatchTask& task : tasks) {
      if (!service.Submit(task).has_value()) {
        std::printf("FAIL: unsharded reference rejected a task\n");
        return 1;
      }
    }
    service.Drain();
    reference = service.Stop();
  }
  RunOutcome unsharded_run;
  unsharded_run.wall_ms = reference.wall_millis;
  unsharded_run.queries_per_sec =
      QueriesPerSec(tasks.size(), reference.wall_millis);

  // Static sharded run.
  RunOutcome static_run;
  {
    ShardRouterConfig config;
    config.num_shards = shards;
    config.virtual_nodes = virtual_nodes;
    config.shard.num_threads = threads;
    ShardRouter router(config, make_rmq);
    router.Start();
    for (const BatchTask& task : tasks) {
      if (!router.Submit(task).has_value()) {
        std::printf("FAIL: static router rejected a task\n");
        return 1;
      }
    }
    router.Drain();
    BatchReport report = router.Stop();
    static_run.wall_ms = report.wall_millis;
    static_run.queries_per_sec =
        QueriesPerSec(tasks.size(), report.wall_millis);
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!BitwiseEqual(report.tasks[i].frontier,
                        reference.tasks[i].frontier)) {
        static_run.identical = false;
      }
    }
  }

  // Elastic run: grow by one shard mid-stream, shrink again later. Both
  // membership changes rebalance in-flight tasks through the wire.
  //
  // The growth must find a task whose ring owner changes still unfinished,
  // or the migration gate measures a race against the workers. That is
  // arranged by construction. Routers derive identical rings for the same
  // shard ids, so routers built with `shards` and `shards + 1` members
  // name each task's owner before and after AddShard. `threads` holder
  // tasks per shard (extra tasks, owned by that shard before and after)
  // are submitted first. Under FIFO every worker's first slice is a
  // holder's, after which it blocks in the snapshot sink until AddShard
  // has returned. Every task submitted before the growth is therefore
  // still queued during the rebalance, and each one whose owner changes
  // is migrated. The growth waits, if need be, until such a task has been
  // submitted. The holders' own results are not compared.
  RunOutcome elastic_run;
  size_t growth_movers = 0;
  {
    ShardRouterConfig config;
    config.num_shards = shards;
    config.virtual_nodes = virtual_nodes;
    config.shard.num_threads = threads;
    config.shard.steps_per_slice = 1;
    ShardRouterConfig grown_config = config;
    grown_config.num_shards = shards + 1;
    const ShardRouter before(config, make_rmq);
    const ShardRouter after(grown_config, make_rmq);
    auto moves = [&](const BatchTask& task) {
      return before.ShardFor(task) != after.ShardFor(task);
    };

    size_t grow_point = grow_at;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!moves(tasks[i])) continue;
      grow_point = std::max(grow_point, i + 1);
      break;
    }
    for (size_t i = 0; i < grow_point && i < tasks.size(); ++i) {
      if (moves(tasks[i])) ++growth_movers;
    }

    std::vector<BatchTask> holders;
    std::set<uint64_t> holder_seeds;
    {
      std::vector<size_t> per_shard(static_cast<size_t>(shards), 0);
      const std::vector<BatchTask> pool =
          GenerateBatch(64 * shards * threads, generator, ~seed, 0);
      for (const BatchTask& task : pool) {
        const size_t owner = before.ShardFor(task);
        if (moves(task) || per_shard[owner] == static_cast<size_t>(threads)) {
          continue;
        }
        ++per_shard[owner];
        holders.push_back(task);
        holder_seeds.insert(task.seed);
      }
      if (holders.size() != static_cast<size_t>(shards * threads)) {
        std::printf("FAIL: found %zu of %d holder tasks\n", holders.size(),
                    shards * threads);
        return 1;
      }
    }

    Latch grown;
    config.shard.snapshot_every = 1;
    config.shard.snapshot_sink = [&holder_seeds, &grown](size_t,
                                                         WireTask&& state) {
      if (holder_seeds.count(state.task.seed) != 0) grown.Wait();
    };
    ShardRouter router(config, make_rmq);
    router.Start();
    for (const BatchTask& holder : holders) {
      if (!router.Submit(holder).has_value()) {
        grown.Open();
        std::printf("FAIL: elastic router rejected a holder task\n");
        return 1;
      }
    }
    size_t added = 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!router.Submit(tasks[i]).has_value()) {
        grown.Open();
        std::printf("FAIL: elastic router rejected a task\n");
        return 1;
      }
      // Open-loop pacing so the workers genuinely get mid-run before the
      // shrink — otherwise every task it migrates would still be queued
      // (empty checkpoint) and it would never exercise the
      // checkpoint-over-the-wire path.
      if (pace_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
      }
      if (i + 1 == grow_point) {
        added = router.AddShard();
        grown.Open();
      }
      if (i + 1 == shrink_at && added != 0) router.RemoveShard(added);
    }
    grown.Open();  // no growth happened (grow point past the last task)
    router.Drain();
    elastic_run.migrations = router.migrations();
    elastic_run.checkpointed_migrations = router.checkpointed_migrations();
    BatchReport report = router.Stop();
    elastic_run.wall_ms = report.wall_millis;
    elastic_run.queries_per_sec =
        QueriesPerSec(tasks.size(), report.wall_millis);
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!BitwiseEqual(report.tasks[holders.size() + i].frontier,
                        reference.tasks[i].frontier)) {
        elastic_run.identical = false;
      }
    }
  }

  // Wire round-trip gate: checkpoint a session mid-run, ship the task
  // through the wire, restore against a query rebuilt *only* from the
  // decoded frame, finish, and compare bitwise with the uninterrupted run.
  bool wire_identical = true;
  {
    const BatchTask& task = tasks[0];
    RmqConfig rmq_config;
    rmq_config.max_iterations = iterations;
    Rmq rmq(rmq_config);
    CostModel model({Metric::kTime, Metric::kBuffer});

    PlanFactory uninterrupted_factory(task.query, &model);
    Rng uninterrupted_rng(task.seed);
    auto uninterrupted = rmq.NewSession();
    uninterrupted->Begin(&uninterrupted_factory, &uninterrupted_rng);
    while (!uninterrupted->Done()) uninterrupted->Step();

    PlanFactory source_factory(task.query, &model);
    Rng source_rng(task.seed);
    auto source = rmq.NewSession();
    source->Begin(&source_factory, &source_rng);
    for (int s = 0; s < iterations / 2 && !source->Done(); ++s) {
      source->Step();
    }
    WireTask wire = MakeWireTask(task);
    wire.checkpoint = source->Checkpoint();
    wire.steps = source->session_stats().steps;
    std::vector<uint8_t> frame = EncodeWireTask(wire);

    WireTask decoded;
    if (!DecodeWireTask(frame, &decoded)) {
      wire_identical = false;
    } else {
      PlanFactory destination_factory(decoded.task.query, &model);
      Rng destination_rng(decoded.task.seed);
      auto destination = rmq.NewSession();
      if (!destination->Restore(&destination_factory, &destination_rng,
                                decoded.checkpoint)) {
        wire_identical = false;
      } else {
        while (!destination->Done()) destination->Step();
        wire_identical =
            BitwiseEqual(CanonicalFrontier(destination->Frontier()),
                         CanonicalFrontier(uninterrupted->Frontier()));
      }
    }
  }

  std::printf("%-12s %10s %12s %10s %12s\n", "run", "wall_ms", "queries/s",
              "identical", "migrations");
  std::printf("%-12s %10.1f %12.1f %10s %12s\n", "unsharded",
              unsharded_run.wall_ms, unsharded_run.queries_per_sec, "ref",
              "-");
  std::printf("%-12s %10.1f %12.1f %10s %12s\n", "static",
              static_run.wall_ms, static_run.queries_per_sec,
              static_run.identical ? "yes" : "NO", "0");
  std::printf("%-12s %10.1f %12.1f %10s %9zu(%zu)\n", "elastic",
              elastic_run.wall_ms, elastic_run.queries_per_sec,
              elastic_run.identical ? "yes" : "NO", elastic_run.migrations,
              elastic_run.checkpointed_migrations);

  const bool pass = static_run.identical && elastic_run.identical &&
                    elastic_run.migrations > 0 && wire_identical;
  std::printf(
      "\n%s: static frontiers %s, elastic frontiers %s (%zu rebalance "
      "migrations, %zu with mid-run checkpoints, %zu queued for the "
      "growth), wire round-trip %s\n",
      pass ? "PASS" : "FAIL",
      static_run.identical ? "identical" : "DIVERGED",
      elastic_run.identical ? "identical" : "DIVERGED",
      elastic_run.migrations, elastic_run.checkpointed_migrations,
      growth_movers, wire_identical ? "bit-identical" : "DIVERGED");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    bench::JsonWriter w(out);
    bench::BeginReport(&w, "shard_throughput");
    w.BeginObject("config");
    w.Field("queries", queries);
    w.Field("tables", tables);
    w.Field("iterations", iterations);
    w.Field("threads_per_shard", threads);
    w.Field("shards", shards);
    w.Field("virtual_nodes", virtual_nodes);
    w.Field("seed", static_cast<int64_t>(seed));
    w.EndObject();
    w.BeginObject("metrics");
    w.Field("unsharded_wall_ms", unsharded_run.wall_ms);
    w.Field("unsharded_qps", unsharded_run.queries_per_sec);
    w.Field("static_wall_ms", static_run.wall_ms);
    w.Field("static_qps", static_run.queries_per_sec);
    w.Field("elastic_wall_ms", elastic_run.wall_ms);
    w.Field("elastic_qps", elastic_run.queries_per_sec);
    w.Field("migrations", elastic_run.migrations);
    w.Field("checkpointed_migrations", elastic_run.checkpointed_migrations);
    w.Field("growth_movers", growth_movers);
    w.EndObject();
    w.BeginObject("gates");
    w.Field("static_identical", static_run.identical);
    w.Field("elastic_identical", elastic_run.identical);
    w.Field("wire_roundtrip_identical", wire_identical);
    w.EndObject();
    w.Field("pass", pass);
    w.EndObject();
    out << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
