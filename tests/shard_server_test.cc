// Cross-process shard transport suite, run in-process over socketpairs:
// the ShardServer serve loop against a RemoteShard client (bitwise submit
// round-trips, mid-run resume over the wire, snapshot streaming, suspend
// rendezvous), raw-protocol abuse (duplicate request ids, undecodable
// bodies, clean shutdown handshake, client EOF), and connection-death
// recovery (orphaned tasks replayed locally through the router's
// FailShard, original futures delivering bitwise-identical frontiers).
#include "service/shard_server.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query_fingerprint.h"
#include "core/rmq.h"
#include "net/frame_channel.h"
#include "service/batch_optimizer.h"
#include "service/remote_shard.h"
#include "service/shard_protocol.h"
#include "service/shard_router.h"
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

ShardServerConfig ServerConfig(int snapshot_every = 0) {
  ShardServerConfig config;
  config.scheduler.num_threads = 2;
  config.scheduler.steps_per_slice = 4;
  config.scheduler.snapshot_every = snapshot_every;
  config.pump_interval_ms = 5;
  config.heartbeat_ms = 100;
  return config;
}

RemoteShardConfig ClientConfig() {
  RemoteShardConfig config;
  config.recv_poll_ms = 10;
  // Generous: slow sanitizer runs must not fake a death.
  config.silence_timeout_ms = 20000;
  config.op_timeout_ms = 20000;
  return config;
}

/// One in-process shard server serving one end of a socketpair on its own
/// thread.
struct ServeThread {
  net::FrameChannel server_end;
  std::thread thread;
  bool clean = false;

  void Start(ShardServerConfig config, int iterations) {
    thread = std::thread([this, config = std::move(config), iterations] {
      ShardServer server(config, RmqFactory(iterations));
      clean = server.Serve(&server_end);
    });
  }
  void Join() {
    if (thread.joinable()) thread.join();
  }
  ~ServeThread() { Join(); }
};

TEST(ShardServerTest, SubmitOverWireMatchesBlockingReference) {
  std::vector<BatchTask> tasks = SmallBatch(8, 6);
  BatchReport reference = BlockingReference(tasks, 20);

  ServeThread serve;
  net::FrameChannel client_end;
  ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client_end));
  serve.Start(ServerConfig(), 20);

  RemoteShard shard(ClientConfig(), std::move(client_end));
  shard.Start();
  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = shard.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  shard.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, 20);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged across the wire";
  }
  BatchReport report = shard.Stop();
  serve.Join();
  EXPECT_TRUE(serve.clean);
  EXPECT_TRUE(shard.alive());
  ASSERT_EQ(report.tasks.size(), tasks.size());
  for (size_t i = 0; i < report.tasks.size(); ++i) {
    EXPECT_FALSE(report.tasks[i].migrated);
  }
}

// A task suspended mid-run off a local scheduler finishes bitwise
// identically on the far side of the wire: the checkpoint crosses as
// opaque bytes and restores against the rebuilt query.
TEST(ShardServerTest, MidRunResumeOverWireIsBitwiseIdentical) {
  std::vector<BatchTask> tasks = SmallBatch(6, 6);
  BatchReport reference = BlockingReference(tasks, 20);

  ServeThread serve;
  net::FrameChannel client_end;
  ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client_end));
  serve.Start(ServerConfig(), 20);
  RemoteShard shard(ClientConfig(), std::move(client_end));
  shard.Start();

  OnlineConfig local_config;
  local_config.num_threads = 2;
  local_config.steps_per_slice = 4;
  OnlineScheduler local(local_config, RmqFactory(20));
  local.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  size_t moved = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto ticket = local.Submit(tasks[i]);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
    // The workers race the suspension, so the hop catches tasks queued,
    // mid-run, or already finished — every case must preserve results.
    auto suspended = local.Suspend(i);
    if (suspended.has_value()) {
      ASSERT_TRUE(shard.Resume(*suspended));
      EXPECT_TRUE(suspended->consumed());
      ++moved;
    }
  }
  local.Drain();
  shard.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(tickets[i].get().frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged after the wire hop";
  }
  EXPECT_GT(moved, 0u);
  shard.Stop();
  local.Stop();
  serve.Join();
  EXPECT_TRUE(serve.clean);
}

// With the snapshot cadence on, the server streams kSnapshot recovery
// frames while tasks run; the client retains them without disturbing
// results.
TEST(ShardServerTest, PeriodicSnapshotsReachTheClient) {
  std::vector<BatchTask> tasks = SmallBatch(4, 6);
  BatchReport reference = BlockingReference(tasks, 40);

  ShardServerConfig config = ServerConfig(/*snapshot_every=*/1);
  config.scheduler.steps_per_slice = 2;  // many slice boundaries
  ServeThread serve;
  net::FrameChannel client_end;
  ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client_end));
  serve.Start(config, 40);

  RemoteShard shard(ClientConfig(), std::move(client_end));
  shard.Start();
  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = shard.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  shard.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(tickets[i].get().frontier, reference.tasks[i].frontier));
  }
  EXPECT_GT(shard.snapshots_received(), 0u);
  shard.Stop();
  serve.Join();
  EXPECT_TRUE(serve.clean);
}

// The suspend rendezvous: a task is pulled back off the server mid-run
// and finishes on a local scheduler, bitwise identical.
TEST(ShardServerTest, SuspendOverWireFinishesLocally) {
  std::vector<BatchTask> tasks = SmallBatch(6, 6);
  BatchReport reference = BlockingReference(tasks, 30);

  ShardServerConfig config = ServerConfig();
  config.scheduler.steps_per_slice = 2;
  ServeThread serve;
  net::FrameChannel client_end;
  ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client_end));
  serve.Start(config, 30);
  RemoteShard shard(ClientConfig(), std::move(client_end));
  shard.set_label("shard under test");
  shard.Start();

  OnlineConfig local_config;
  local_config.num_threads = 2;
  OnlineScheduler local(local_config, RmqFactory(30));
  local.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = shard.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  size_t pulled = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto suspended = shard.Suspend(i);
    // Finished tasks refuse suspension; racing is expected.
    if (!suspended.has_value()) continue;
    EXPECT_EQ(suspended->origin, "shard under test");
    ASSERT_TRUE(local.Resume(*suspended));
    ++pulled;
  }
  shard.Drain();
  local.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(tickets[i].get().frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged after suspend-back";
  }
  shard.Stop();
  local.Stop();
  serve.Join();
  EXPECT_TRUE(serve.clean);
}

// Raw protocol: the same request id twice is an explicit kReject (the
// duplicate-delivery guard), and a kSubmit body that is not a wire task
// is rejected with the decode reason — the connection survives both.
TEST(ShardServerTest, DuplicateAndGarbageSubmitsAreRejected) {
  std::vector<BatchTask> tasks = SmallBatch(1, 5);
  ServeThread serve;
  net::FrameChannel client;
  ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client));
  serve.Start(ServerConfig(), 5);

  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(tasks[0]));
  Message submit;
  submit.type = MsgType::kSubmit;
  submit.request_id = 7;
  submit.body = frame;
  ASSERT_EQ(client.Send(EncodeMessage(submit)), net::IoStatus::kOk);
  ASSERT_EQ(client.Send(EncodeMessage(submit)), net::IoStatus::kOk);
  Message garbage;
  garbage.type = MsgType::kSubmit;
  garbage.request_id = 8;
  garbage.body = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_EQ(client.Send(EncodeMessage(garbage)), net::IoStatus::kOk);

  std::set<uint64_t> rejected;
  std::string garbage_reason;
  bool got_result = false;
  for (int spins = 0; spins < 1000 && (rejected.size() < 2 || !got_result);
       ++spins) {
    std::vector<uint8_t> payload;
    if (client.Recv(&payload, 50) != net::IoStatus::kOk) continue;
    Message message;
    std::string why;
    ASSERT_TRUE(DecodeMessage(payload, &message, &why)) << why;
    if (message.type == MsgType::kReject) {
      rejected.insert(message.request_id);
      if (message.request_id == 8) {
        garbage_reason.assign(message.body.begin(), message.body.end());
      }
    }
    if (message.type == MsgType::kResult && message.request_id == 7) {
      got_result = true;
    }
  }
  EXPECT_TRUE(got_result) << "first submit of id 7 must still run";
  EXPECT_TRUE(rejected.count(7)) << "duplicate id 7 must be rejected";
  EXPECT_TRUE(rejected.count(8)) << "garbage body must be rejected";
  EXPECT_NE(garbage_reason.find("bad task frame"), std::string::npos)
      << garbage_reason;

  Message shutdown;
  shutdown.type = MsgType::kShutdown;
  ASSERT_EQ(client.Send(EncodeMessage(shutdown)), net::IoStatus::kOk);
  serve.Join();
  EXPECT_TRUE(serve.clean);
}

// The shutdown handshake: kShutdown drains and answers kBye after every
// result; a client that just disappears (EOF) ends Serve with a dirty
// (false) verdict instead of hanging.
TEST(ShardServerTest, ShutdownHandshakeAndClientEof) {
  {
    ServeThread serve;
    net::FrameChannel client;
    ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client));
    serve.Start(ServerConfig(), 5);
    Message shutdown;
    shutdown.type = MsgType::kShutdown;
    ASSERT_EQ(client.Send(EncodeMessage(shutdown)), net::IoStatus::kOk);
    bool got_bye = false;
    for (int spins = 0; spins < 200 && !got_bye; ++spins) {
      std::vector<uint8_t> payload;
      if (client.Recv(&payload, 50) != net::IoStatus::kOk) break;
      Message message;
      std::string why;
      ASSERT_TRUE(DecodeMessage(payload, &message, &why)) << why;
      got_bye = message.type == MsgType::kBye;
    }
    EXPECT_TRUE(got_bye);
    serve.Join();
    EXPECT_TRUE(serve.clean);
  }
  {
    ServeThread serve;
    net::FrameChannel client;
    ASSERT_TRUE(net::FrameChannel::Pair(&serve.server_end, &client));
    serve.Start(ServerConfig(), 5);
    client.Close();  // vanish
    serve.Join();
    EXPECT_FALSE(serve.clean);
  }
}

// Connection death with tasks in flight: the RemoteShard marks itself
// dead, the router's FailShard recovers the orphaned frames and replays
// them onto the surviving local shard, and the ORIGINAL futures deliver
// frontiers bitwise identical to the unperturbed reference.
TEST(ShardServerTest, DeadConnectionOrphansReplayThroughFailShard) {
  std::vector<BatchTask> tasks = SmallBatch(10, 6);
  BatchReport reference = BlockingReference(tasks, 15);

  ShardRouterConfig router_config;
  router_config.num_shards = 1;  // the survivor
  router_config.shard.num_threads = 2;
  ShardRouter router(router_config, RmqFactory(15));
  router.Start();

  // A "remote" shard whose server never answers: the far end of the pair
  // is simply dropped, the in-process stand-in for kill -9.
  net::FrameChannel far_end, client_end;
  ASSERT_TRUE(net::FrameChannel::Pair(&far_end, &client_end));
  RemoteShardConfig client_config = ClientConfig();
  auto remote =
      std::make_unique<RemoteShard>(client_config, std::move(client_end));
  RemoteShard* remote_ptr = remote.get();
  bool death_seen = false;
  std::mutex death_mu;
  std::condition_variable death_cv;
  remote->set_death_callback([&](RemoteShard*) {
    std::unique_lock<std::mutex> lock(death_mu);
    death_seen = true;
    death_cv.notify_all();
  });
  size_t remote_id = router.AddShard(std::move(remote));
  ASSERT_NE(remote_id, static_cast<size_t>(-1));

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = router.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  // Some tasks must have routed to the (doomed) remote shard.
  ASSERT_GT(remote_ptr->submitted_count(), 0u);

  far_end.Close();  // the death
  {
    std::unique_lock<std::mutex> lock(death_mu);
    ASSERT_TRUE(death_cv.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return death_seen; }));
  }
  ASSERT_TRUE(router.FailShard(remote_id));
  EXPECT_EQ(router.failed_shards(), 1u);
  EXPECT_GT(router.failover_replayed(), 0u);

  router.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged across the failover";
  }
  BatchReport report = router.Stop();
  EXPECT_EQ(report.tasks.size(), tasks.size());
}

// An orphan abandoned instead of replayed fails its future with the
// failover context (shard id, route key) — never a bare broken_promise.
TEST(ShardServerTest, AbandonedOrphanErrorNamesShardAndRouteKey) {
  std::vector<BatchTask> tasks = SmallBatch(1, 5);
  net::FrameChannel far_end, client_end;
  ASSERT_TRUE(net::FrameChannel::Pair(&far_end, &client_end));
  RemoteShard shard(ClientConfig(), std::move(client_end));
  shard.set_label("remote shard (pid 424242)");
  shard.Start();
  auto ticket = shard.Submit(tasks[0]);
  ASSERT_TRUE(ticket.has_value());
  far_end.Close();
  for (int spins = 0; spins < 1000 && shard.alive(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(shard.alive());

  std::vector<OrphanTask> orphans = shard.TakeOrphans();
  ASSERT_EQ(orphans.size(), 1u);
  {
    WireTask wire;
    std::string why;
    ASSERT_TRUE(DecodeWireTask(orphans[0].frame, &wire, &why)) << why;
    SuspendedTask rebuilt(std::move(wire), std::move(orphans[0].promise));
    rebuilt.origin = "failover from shard 9, route key " +
                     RouteKeyString(0xabcdefull) + ", fingerprint " +
                     FingerprintString(0x123456ull);
    // Dropped without a resume: the destructor must fail the future
    // descriptively, carrying the origin.
  }
  try {
    ticket->get();
    FAIL() << "abandoned orphan must fail its future";
  } catch (const std::runtime_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("failover from shard 9"), std::string::npos) << what;
    EXPECT_NE(what.find("route key 0x"), std::string::npos) << what;
    EXPECT_NE(what.find("fingerprint 0x"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace moqo
