// Shard router suite: consistent-hash placement properties, the
// Submit/Drain/Stop + futures front door over N scheduler shards,
// bitwise-identical frontiers vs an unsharded reference (static
// membership and under AddShard/RemoveShard rebalances), report
// aggregation in router submission order, and a cross-shard ping-pong
// rebalance under load for the TSan tier.
#include "service/shard_router.h"

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/wire.h"

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
                                  uint64_t master_seed = 2016) {
  GeneratorConfig generator;
  generator.num_tables = tables;
  return GenerateBatch(n, generator, master_seed, /*deadline_micros=*/0);
}

BatchReport BlockingReference(const std::vector<BatchTask>& tasks,
                              int iterations) {
  BatchConfig single;
  single.num_threads = 1;
  return BatchOptimizer(single, RmqFactory(iterations)).Run(tasks);
}

// Placement is a pure function of query + seed + membership: two routers
// with the same configuration agree on every task, and the distribution
// uses more than one shard for a reasonable workload.
TEST(ShardRouterTest, PlacementIsDeterministicAndSpread) {
  std::vector<BatchTask> tasks = SmallBatch(32, 6);
  ShardRouterConfig config;
  config.num_shards = 4;
  ShardRouter a(config, RmqFactory(5));
  ShardRouter b(config, RmqFactory(5));

  std::set<size_t> used;
  for (const BatchTask& task : tasks) {
    size_t owner = a.ShardFor(task);
    EXPECT_EQ(b.ShardFor(task), owner);
    EXPECT_LT(owner, 4u);
    used.insert(owner);
  }
  EXPECT_GE(used.size(), 2u) << "all 32 tasks hashed onto one shard";
}

// The consistent-hashing contract: growing membership only moves keys
// *onto* the new shard — no task migrates between two old shards — and
// shrinking moves only the removed shard's keys.
TEST(ShardRouterTest, MembershipChangeMovesOnlyAffectedKeys) {
  std::vector<BatchTask> tasks = SmallBatch(64, 6);
  ShardRouterConfig config;
  config.num_shards = 3;
  ShardRouter router(config, RmqFactory(5));

  std::map<size_t, size_t> before;
  for (size_t i = 0; i < tasks.size(); ++i) {
    before[i] = router.ShardFor(tasks[i]);
  }
  size_t added = router.AddShard();
  size_t moved = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    size_t owner = router.ShardFor(tasks[i]);
    if (owner != before[i]) {
      EXPECT_EQ(owner, added)
          << "task " << i << " moved between two pre-existing shards";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u) << "a new shard attracted no keys";
  EXPECT_LT(moved, tasks.size()) << "adding one shard reshuffled everything";

  // Removing the shard restores exactly the old placement.
  ASSERT_TRUE(router.RemoveShard(added));
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(router.ShardFor(tasks[i]), before[i]) << "task " << i;
  }
  router.Stop();
}

// The acceptance contract: a 4-shard router produces frontiers bitwise
// identical to the unsharded scheduler reference, delivered both through
// the Submit() futures and the aggregated Stop() report (in router
// submission order).
TEST(ShardRouterTest, StaticShardingMatchesUnshardedReference) {
  std::vector<BatchTask> tasks = SmallBatch(12, 6);
  BatchReport reference = BlockingReference(tasks, 20);

  ShardRouterConfig config;
  config.num_shards = 4;
  config.shard.num_threads = 2;
  ShardRouter router(config, RmqFactory(20));
  router.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = router.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  router.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, 20);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged across sharding";
  }

  BatchReport report = router.Stop();
  ASSERT_EQ(report.tasks.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(report.tasks[i].index, static_cast<int>(i));
    EXPECT_TRUE(BitwiseEqual(report.tasks[i].frontier,
                             reference.tasks[i].frontier))
        << "report slot " << i << " diverged";
  }
  EXPECT_EQ(report.migrated_tasks, 0u);
}

// Mid-run elasticity: shards added and removed while tasks are in flight
// rebalance via suspend -> wire -> resume, and every future still delivers
// the reference frontier bitwise.
TEST(ShardRouterTest, RebalanceUnderMembershipChangeIsInvisible) {
  std::vector<BatchTask> tasks = SmallBatch(16, 6);
  BatchReport reference = BlockingReference(tasks, 25);

  ShardRouterConfig config;
  config.num_shards = 2;
  config.shard.num_threads = 2;
  config.shard.steps_per_slice = 1;
  ShardRouter router(config, RmqFactory(25));
  router.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  size_t added = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto ticket = router.Submit(tasks[i]);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
    if (i == 5) added = router.AddShard();
    if (i == 11) {
      ASSERT_TRUE(router.RemoveShard(added));
    }
  }
  EXPECT_EQ(router.shard_count(), 2u);
  router.Drain();

  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, 25);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged across a rebalance";
  }
  BatchReport report = router.Stop();
  ASSERT_EQ(report.tasks.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(report.tasks[i].frontier,
                             reference.tasks[i].frontier))
        << "report slot " << i << " diverged";
  }
}

// Removing the last shard is refused; removing an unknown id is refused;
// membership cannot change on a stopped router.
TEST(ShardRouterTest, MembershipGuards) {
  ShardRouterConfig config;
  config.num_shards = 1;
  ShardRouter router(config, RmqFactory(5));
  EXPECT_FALSE(router.RemoveShard(0));  // last shard
  EXPECT_FALSE(router.RemoveShard(99));
  size_t added = router.AddShard();
  EXPECT_TRUE(router.RemoveShard(added));
  EXPECT_EQ(router.shard_count(), 1u);
  router.Stop();
  EXPECT_EQ(router.AddShard(), static_cast<size_t>(-1));
  EXPECT_FALSE(router.RemoveShard(0));
  EXPECT_EQ(router.shard_count(), 0u);
}

// Back-pressure passes through: a full kReject admission window on the
// owning shard surfaces as a rejected router Submit().
TEST(ShardRouterTest, RejectionPropagates) {
  std::vector<BatchTask> tasks = SmallBatch(6, 5);
  ShardRouterConfig config;
  config.num_shards = 1;  // one shard so the window applies to every task
  config.shard.max_open = 2;
  config.shard.admission = AdmissionPolicy::kReject;
  ShardRouter router(config, RmqFactory(5));
  // Not started: nothing drains, so the third admission must bounce.
  ASSERT_TRUE(router.Submit(tasks[0]).has_value());
  ASSERT_TRUE(router.Submit(tasks[1]).has_value());
  EXPECT_FALSE(router.Submit(tasks[2]).has_value());
  EXPECT_EQ(router.submitted_count(), 2u);
  router.Drain();
  BatchReport report = router.Stop();
  EXPECT_EQ(report.tasks.size(), 2u);
  // Stopped: everything is rejected.
  EXPECT_FALSE(router.Submit(tasks[3]).has_value());
}

// Cross-shard ping-pong under load (the TSan tier runs this): one thread
// keeps submitting while another repeatedly adds and removes a shard,
// forcing rebalances in both directions over live workers. Every future
// must deliver the blocking reference bitwise.
TEST(ShardRouterTest, PingPongRebalanceUnderLoadIsRaceFree) {
  constexpr int kTasks = 24;
  std::vector<BatchTask> tasks = SmallBatch(kTasks, 6);
  BatchReport reference = BlockingReference(tasks, 30);

  ShardRouterConfig config;
  config.num_shards = 2;
  config.shard.num_threads = 2;
  config.shard.steps_per_slice = 1;
  ShardRouter router(config, RmqFactory(30));
  router.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  tickets.reserve(kTasks);
  std::thread rebalancer([&] {
    for (int round = 0; round < 6; ++round) {
      size_t added = router.AddShard();
      std::this_thread::yield();
      ASSERT_TRUE(router.RemoveShard(added));
    }
  });
  for (const BatchTask& task : tasks) {
    auto ticket = router.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  rebalancer.join();
  router.Drain();

  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, 30);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged during ping-pong rebalancing";
  }
  BatchReport report = router.Stop();
  EXPECT_EQ(report.tasks.size(), tasks.size());
}

// The wire-level resume path a router rebalance exercises, spelled out:
// suspend off a live scheduler, encode, decode, re-attach the promise,
// resume on a different scheduler — the original future delivers.
TEST(ShardRouterTest, ManualWireHopDeliversThroughOriginalFuture) {
  std::vector<BatchTask> tasks = SmallBatch(1, 6);
  BatchReport reference = BlockingReference(tasks, 12);

  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler source(config, RmqFactory(12));
  OnlineScheduler destination(config, RmqFactory(12));
  destination.Start();

  auto ticket = source.Submit(tasks[0]);
  ASSERT_TRUE(ticket.has_value());
  auto suspended = source.Suspend(0);
  ASSERT_TRUE(suspended.has_value());

  std::vector<uint8_t> frame = EncodeWireTask(suspended->state);
  WireTask wire;
  ASSERT_TRUE(DecodeWireTask(frame, &wire));
  SuspendedTask rebuilt(std::move(wire), std::move(suspended->promise));
  suspended->MarkConsumed();  // promise handed to the rebuilt task

  ASSERT_TRUE(destination.Resume(rebuilt));
  destination.Drain();
  BatchTaskResult result = ticket->get();
  EXPECT_EQ(result.steps, 12);
  EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[0].frontier));
  source.Stop();
  destination.Stop();
}

}  // namespace
}  // namespace moqo
