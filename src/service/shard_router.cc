#include "service/shard_router.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/query_fingerprint.h"
#include "service/wire.h"

namespace moqo {

namespace {

/// Hash of one ring point. Seeded by a fixed tag plus the shard's stable
/// id and the replica number, so every router instance — in any process —
/// derives the identical ring for the same membership.
uint64_t RingPointHash(size_t shard_id, int replica) {
  return CombineSeed(0x52494e47ull /* "RING" */,
                     static_cast<uint64_t>(shard_id),
                     static_cast<uint64_t>(replica));
}

}  // namespace

ShardRouter::ShardRouter(ShardRouterConfig config,
                         OptimizerFactory make_optimizer)
    : config_(std::move(config)), make_optimizer_(std::move(make_optimizer)) {
  config_.num_shards = std::max(0, config_.num_shards);
  config_.virtual_nodes = std::max(1, config_.virtual_nodes);
  MutexLock lock(mu_);
  for (int i = 0; i < config_.num_shards; ++i) {
    size_t id = next_shard_id_++;
    shards_.emplace(id, std::make_unique<LocalShard>(config_.shard,
                                                     make_optimizer_));
  }
  peak_shards_ = shards_.size();
  RebuildRingLocked();
}

ShardRouter::~ShardRouter() {
  bool stopped;
  {
    MutexLock lock(mu_);
    stopped = stopped_;
  }
  if (!stopped) Stop();
}

void ShardRouter::StartLocked() {
  if (started_) return;
  started_ = true;
  for (auto& [id, shard] : shards_) shard->Start();
}

void ShardRouter::Start() {
  MutexLock lock(mu_);
  StartLocked();
}

void ShardRouter::RebuildRingLocked() {
  ring_.clear();
  ring_.reserve(shards_.size() *
                static_cast<size_t>(config_.virtual_nodes));
  for (const auto& [id, shard] : shards_) {
    for (int replica = 0; replica < config_.virtual_nodes; ++replica) {
      ring_.push_back(RingPoint{RingPointHash(id, replica), id});
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ShardRouter::OwnerLocked(uint64_t key) const {
  // First point at or after the key, wrapping to the ring's start.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const RingPoint& point, uint64_t k) { return point.hash < k; });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard_id;
}

size_t ShardRouter::LiveOwnerLocked(uint64_t key) const {
  if (ring_.empty()) return static_cast<size_t>(-1);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const RingPoint& point, uint64_t k) { return point.hash < k; });
  size_t start = static_cast<size_t>(it - ring_.begin()) % ring_.size();
  for (size_t step = 0; step < ring_.size(); ++step) {
    size_t id = ring_[(start + step) % ring_.size()].shard_id;
    if (shards_.at(id)->alive()) return id;
  }
  return static_cast<size_t>(-1);
}

std::optional<std::future<BatchTaskResult>> ShardRouter::Submit(
    const BatchTask& task) {
  // The layered identity is computed once, outside mu_ (canonicalization
  // walks the query), and the fingerprint is stamped into the task so the
  // owning shard's scheduler — and, for a remote shard, the wire frame —
  // reuses it for its frontier cache instead of re-canonicalizing.
  BatchTask routed = task;
  routed.fingerprint = FingerprintOf(task);
  uint64_t key = DeriveRouteKey(routed.fingerprint, routed.seed);
  MutexLock lock(mu_);
  if (stopped_ || ring_.empty()) return std::nullopt;
  // Walk the ring from the key's owner, skipping shards known dead (their
  // failover is pending) and shards that die under the Submit itself —
  // but honoring a *live* shard's refusal, which is admission
  // back-pressure, not a routing problem.
  size_t start;
  {
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), key,
        [](const RingPoint& point, uint64_t k) { return point.hash < k; });
    start = static_cast<size_t>(it - ring_.begin()) % ring_.size();
  }
  size_t last_tried = static_cast<size_t>(-1);
  for (size_t step = 0; step < ring_.size(); ++step) {
    size_t owner = ring_[(start + step) % ring_.size()].shard_id;
    if (owner == last_tried) continue;
    last_tried = owner;
    Shard* shard = shards_.at(owner).get();
    if (!shard->alive()) continue;
    auto ticket = shard->Submit(routed);
    if (ticket.has_value()) {
      // No other router-driven admission can interleave (mu_ is held), so
      // the task's shard-local index is the shard's latest submission.
      entries_.push_back(Entry{key, routed.fingerprint, owner,
                               shard->submitted_count() - 1});
      return ticket;
    }
    if (shard->alive()) return std::nullopt;
  }
  return std::nullopt;
}

void ShardRouter::Drain() {
  MutexLock lock(mu_);
  StartLocked();
  // Shard workers never take mu_, so holding it while the shards drain is
  // safe; it also pins membership for the duration.
  for (auto& [id, shard] : shards_) shard->Drain();
}

BatchReport ShardRouter::Stop() {
  MutexLock lock(mu_);
  BatchReport report;
  if (stopped_) return report;
  stopped_ = true;
  for (auto& [id, shard] : shards_) retired_[id] = shard->Stop();
  shards_.clear();
  ring_.clear();

  report.num_threads = static_cast<int>(peak_shards_) *
                       std::max(1, config_.shard.num_threads);
  report.tasks.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    // The entry always points at the shard that last admitted the task —
    // its slot there is the real result, never a migrated-away stub. Each
    // slot is read by exactly one entry and retired_ dies with this call,
    // so the (frontier-carrying) result is moved out, not copied.
    BatchTaskResult result = std::move(
        retired_.at(entry.shard_id).tasks.at(entry.local_index));
    result.index = static_cast<int>(i);
    report.tasks.push_back(std::move(result));
  }
  report.wall_millis = epoch_.ElapsedMillis();
  report.Aggregate();
  // Aggregate() counts migrated stub slots, of which the router keeps
  // none; repurpose the field for the router-level hop count.
  report.migrated_tasks = migrations_;
  return report;
}

size_t ShardRouter::AddShardLocked(std::unique_ptr<Shard> shard) {
  // A rebalance Resume()s onto live shards only, so membership changes
  // imply a running service.
  StartLocked();
  size_t id = next_shard_id_++;
  shard->Start();
  shards_.emplace(id, std::move(shard));
  peak_shards_ = std::max(peak_shards_, shards_.size());
  RebuildRingLocked();
  RebalanceLocked();
  return id;
}

size_t ShardRouter::AddShard() {
  MutexLock lock(mu_);
  if (stopped_) return static_cast<size_t>(-1);
  return AddShardLocked(
      std::make_unique<LocalShard>(config_.shard, make_optimizer_));
}

size_t ShardRouter::AddShard(std::unique_ptr<Shard> shard) {
  MutexLock lock(mu_);
  if (stopped_ || shard == nullptr) return static_cast<size_t>(-1);
  return AddShardLocked(std::move(shard));
}

bool ShardRouter::RemoveShard(size_t shard_id) {
  MutexLock lock(mu_);
  if (stopped_) return false;
  auto it = shards_.find(shard_id);
  if (it == shards_.end() || shards_.size() == 1) return false;
  StartLocked();
  // Take the departing shard off the ring first: the rebalance below then
  // re-derives owners without it and migrates its in-flight tasks away. A
  // task whose new owner refuses it falls back onto the departing shard
  // (still live here) and simply finishes there before the Stop() below
  // retires it — never lost, only un-moved.
  std::unique_ptr<Shard> departing = std::move(it->second);
  shards_.erase(it);
  RebuildRingLocked();
  for (Entry& entry : entries_) {
    if (entry.shard_id != shard_id) continue;
    size_t owner = LiveOwnerLocked(entry.key);
    if (owner == static_cast<size_t>(-1)) continue;
    MigrateLocked(departing.get(), &entry, owner);
  }
  retired_[shard_id] = departing->Stop();
  // Also re-derive owners for everyone else: removing points can only move
  // keys that lived on the departed shard, so this is a no-op by
  // construction — but a cheap invariant to hold rather than assume.
  RebalanceLocked();
  return true;
}

bool ShardRouter::FailShard(size_t shard_id) {
  MutexLock lock(mu_);
  if (stopped_) return false;
  auto it = shards_.find(shard_id);
  if (it == shards_.end()) return false;
  std::unique_ptr<Shard> dead = std::move(it->second);
  shards_.erase(it);
  RebuildRingLocked();
  // Recovery frames must come out before Stop(): stopping a dead shard
  // fails whatever promises it still holds, and these are the ones the
  // replay below is supposed to keep alive.
  std::vector<OrphanTask> orphans = dead->TakeOrphans();
  retired_[shard_id] = dead->Stop();
  dead.reset();
  ++failed_shards_;

  for (OrphanTask& orphan : orphans) {
    Entry* entry = nullptr;
    for (Entry& candidate : entries_) {
      if (candidate.shard_id == shard_id &&
          candidate.local_index == orphan.local_index) {
        entry = &candidate;
        break;
      }
    }
    std::string context =
        "shard " + std::to_string(shard_id) +
        (entry != nullptr
             ? ", route key " + RouteKeyString(entry->key) +
                   ", fingerprint " + FingerprintString(entry->fingerprint)
             : "");
    WireTask wire;
    std::string why;
    if (!DecodeWireTask(orphan.frame, &wire, &why)) {
      orphan.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("failover replay failed for " + context +
                             ": " + why)));
      continue;
    }
    bool mid_run = !wire.checkpoint.empty();
    int64_t resumed_steps = wire.steps;
    SuspendedTask rebuilt(std::move(wire), std::move(orphan.promise));
    rebuilt.origin = "failover from " + context;

    // Preferred destination: the key's post-failure ring owner; fall back
    // to any live survivor before giving up.
    bool placed = false;
    size_t preferred = entry != nullptr ? LiveOwnerLocked(entry->key)
                                        : static_cast<size_t>(-1);
    if (preferred != static_cast<size_t>(-1)) {
      Shard* destination = shards_.at(preferred).get();
      if (destination->Resume(rebuilt)) {
        if (entry != nullptr) {
          entry->shard_id = preferred;
          entry->local_index = destination->submitted_count() - 1;
        }
        placed = true;
      }
    }
    if (!placed) {
      for (auto& [id, shard] : shards_) {
        if (id == preferred || !shard->alive()) continue;
        if (shard->Resume(rebuilt)) {
          if (entry != nullptr) {
            entry->shard_id = id;
            entry->local_index = shard->submitted_count() - 1;
          }
          placed = true;
          break;
        }
      }
    }
    if (!placed) {
      // No survivor accepted it; `rebuilt`'s destructor fails the future
      // with the origin context. The entry keeps pointing at the failed
      // shard, whose retired report holds a migrated stub at this index,
      // so Stop()'s index arithmetic stays aligned.
      continue;
    }
    ++migrations_;
    ++failover_replayed_;
    if (mid_run) {
      ++checkpointed_migrations_;
      ++failover_checkpointed_;
      failover_resume_steps_ += resumed_steps;
    }
  }
  RebalanceLocked();
  return true;
}

void ShardRouter::RebalanceLocked() {
  for (Entry& entry : entries_) {
    // An entry pointing at a retired shard finished there before the shard
    // left; its result lives in the retired report and never moves again.
    auto it = shards_.find(entry.shard_id);
    if (it == shards_.end()) continue;
    // A dead shard's tasks move via FailShard's orphan replay, not via
    // suspend (there is no process left to suspend from).
    if (!it->second->alive()) continue;
    size_t owner = OwnerLocked(entry.key);
    if (owner == entry.shard_id) continue;
    if (!shards_.at(owner)->alive()) continue;
    MigrateLocked(it->second.get(), &entry, owner);
  }
}

bool ShardRouter::MigrateLocked(Shard* source, Entry* entry,
                                size_t to_shard) {
  std::optional<SuspendedTask> suspended =
      source->Suspend(entry->local_index);
  // Already finished on the current shard: its report slot is final.
  if (!suspended.has_value()) return false;

  // Round-trip through the wire exactly as a cross-process transport
  // would: the destination sees only what the frame carries (the query is
  // rebuilt value-for-value, the checkpoint is opaque bytes). The promise
  // is the submitter-side reply channel and stays on this side of the
  // wire.
  std::vector<uint8_t> frame = EncodeWireTask(suspended->state);
  WireTask wire;
  std::string why;
  if (!DecodeWireTask(frame, &wire, &why)) {
    // Decoding our own frame cannot fail short of a framing bug; resume in
    // place so the task is not lost to one.
    if (source->Resume(*suspended)) {
      entry->local_index = source->submitted_count() - 1;
    }
    return false;
  }
  bool mid_run = !wire.checkpoint.empty();
  SuspendedTask rebuilt(std::move(wire), std::move(suspended->promise));
  rebuilt.origin = "migration from shard " + std::to_string(entry->shard_id) +
                   ", route key " + RouteKeyString(entry->key) +
                   ", fingerprint " + FingerprintString(entry->fingerprint);
  suspended->MarkConsumed();

  Shard* destination = shards_.at(to_shard).get();
  if (!destination->Resume(rebuilt)) {
    // Destination refused (stopping or full kReject window): fall back to
    // the old owner rather than dropping the task. If even that fails the
    // rebuilt task's destructor fails the submitter's future descriptively.
    if (source->Resume(rebuilt)) {
      entry->local_index = source->submitted_count() - 1;
    }
    return false;
  }
  entry->shard_id = to_shard;
  entry->local_index = destination->submitted_count() - 1;
  ++migrations_;
  if (mid_run) ++checkpointed_migrations_;
  return true;
}

std::vector<size_t> ShardRouter::shard_ids() const {
  MutexLock lock(mu_);
  std::vector<size_t> ids;
  ids.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) ids.push_back(id);
  return ids;
}

size_t ShardRouter::shard_count() const {
  MutexLock lock(mu_);
  return shards_.size();
}

size_t ShardRouter::ShardFor(const BatchTask& task) const {
  uint64_t key = RouteKey(task);  // query serialization: not under mu_
  MutexLock lock(mu_);
  if (ring_.empty()) return static_cast<size_t>(-1);  // stopped
  return OwnerLocked(key);
}

size_t ShardRouter::submitted_count() const {
  MutexLock lock(mu_);
  return entries_.size();
}

size_t ShardRouter::migrations() const {
  MutexLock lock(mu_);
  return migrations_;
}

size_t ShardRouter::checkpointed_migrations() const {
  MutexLock lock(mu_);
  return checkpointed_migrations_;
}

size_t ShardRouter::failed_shards() const {
  MutexLock lock(mu_);
  return failed_shards_;
}

size_t ShardRouter::failover_replayed() const {
  MutexLock lock(mu_);
  return failover_replayed_;
}

size_t ShardRouter::failover_checkpointed() const {
  MutexLock lock(mu_);
  return failover_checkpointed_;
}

int64_t ShardRouter::failover_resume_steps() const {
  MutexLock lock(mu_);
  return failover_resume_steps_;
}

}  // namespace moqo
