#include "service/online_scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "plan/plan_factory.h"
#include "service/wire.h"

namespace moqo {

void SuspendedTask::Abandon() noexcept {
  if (consumed_) return;
  try {
    std::string message =
        "SuspendedTask dropped without Resume(): the session was suspended "
        "off its scheduler and abandoned mid-migration, so its result will "
        "never be produced";
    if (!origin.empty()) message += " [" + origin + "]";
    promise.set_exception(
        std::make_exception_ptr(std::runtime_error(message)));
  } catch (const std::future_error&) {
    // No shared state (the promise was moved to a transport or rebuilt
    // task) or the future was already satisfied — nothing to fail.
  }
}

SuspendedTask::~SuspendedTask() { Abandon(); }

SuspendedTask& SuspendedTask::operator=(SuspendedTask&& other) noexcept {
  if (this != &other) {
    Abandon();
    state = std::move(other.state);
    promise = std::move(other.promise);
    origin = std::move(other.origin);
    consumed_ = other.consumed_;
  }
  return *this;
}

/// All state of one admitted query. Lives at a stable address (behind a
/// unique_ptr) until finalization because the session keeps pointers to
/// the factory and Rng, and is only ever touched by the thread currently
/// holding it: the submitter before it enters the ready queue, then exactly
/// one worker per slice. Hand-offs go through mu_.
struct OnlineScheduler::OpenQuery {
  OpenQuery(const BatchTask& request, const CostModel* model)
      : task(request), rng(request.seed), factory(request.query, model) {}

  /// Where the per-task state currently lives. Hand-offs through mu_:
  /// kQueued — in ready_, touched by nobody; kRunning — owned by exactly
  /// one worker; kParked — pulled out of circulation for a Suspend() in
  /// progress, owned by the suspending thread.
  enum class RunState { kQueued, kRunning, kParked };

  /// The original request, retained so Suspend() can hand it on.
  BatchTask task;
  int index = -1;  // submission index == result slot
  Rng rng;
  PlanFactory factory;
  std::unique_ptr<OptimizerSession> session;
  Deadline deadline;
  /// Admission-relative absolute deadline (micros since epoch_); the EDF
  /// ready-queue key. Unused for deadline-free tasks.
  int64_t deadline_key_micros = 0;
  int64_t admit_micros = 0;
  bool begun = false;
  /// Sum of slice durations so far (excludes ready-queue wait time).
  double optimize_millis = 0.0;
  RunState state = RunState::kQueued;
  /// Slices completed since the last periodic snapshot (see
  /// OnlineConfig::snapshot_every). Touched only by the worker owning the
  /// current slice.
  int slices_since_snapshot = 0;
  /// Set under mu_ by Suspend(); a worker seeing it after a slice parks
  /// the query instead of requeueing it.
  bool suspend_requested = false;
  /// Warm-start seed decoded from a frontier-cache hit at Submit() time;
  /// consumed by the worker's first slice (BeginFrom instead of Begin).
  std::vector<PlanPtr> warm_plans;
  std::promise<BatchTaskResult> promise;

  bool has_deadline() const { return task.deadline_micros > 0; }

  /// The task state at a slice boundary — what Suspend() hands on and a
  /// periodic snapshot publishes. Called only by the thread that owns the
  /// query exclusively (a parked query's suspender, or the worker holding
  /// the current slice), so the checkpoint is serialized outside mu_.
  WireTask Capture() const {
    WireTask state;
    state.task = task;
    if (has_deadline()) state.remaining_micros = deadline.RemainingMicros();
    state.optimize_millis = optimize_millis;
    if (begun) {
      state.checkpoint = session->Checkpoint();
      state.steps = session->session_stats().steps;
    }
    return state;
  }
};

OnlineScheduler::OnlineScheduler(OnlineConfig config,
                                 OptimizerFactory make_optimizer)
    : config_(std::move(config)),
      make_optimizer_(std::move(make_optimizer)),
      model_(config_.metrics) {}

OnlineScheduler::~OnlineScheduler() {
  bool stopped;
  {
    MutexLock lock(mu_);
    stopped = stopping_;
  }
  if (!stopped) Stop();
}

void OnlineScheduler::Start() {
  MutexLock lock(mu_);
  if (started_) return;
  started_ = true;
  int n = std::max(1, config_.num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

bool OnlineScheduler::WaitForAdmissionSlot(MutexLock& lock) {
  if (stopping_) return false;
  if (config_.max_open > 0 && open_ >= config_.max_open) {
    if (config_.admission == AdmissionPolicy::kReject) return false;
    admit_cv_.Wait(lock, [this]() REQUIRES(mu_) {
      return stopping_ || open_ < config_.max_open;
    });
    if (stopping_) return false;
  }
  return true;
}

void OnlineScheduler::EnqueueAdmitted(std::unique_ptr<OpenQuery> owned,
                                      int64_t window_micros) {
  OpenQuery* q = owned.get();
  q->index = static_cast<int>(queries_.size());
  q->admit_micros = epoch_.ElapsedMicros();
  if (q->has_deadline()) {
    // The deadline starts at admission: queueing delay counts against it.
    // The window is clamped (see kMaxDeadlineMicros), so adding it to the
    // admission timestamp cannot overflow the EDF key.
    q->deadline = Deadline::AfterMicros(window_micros);
    q->deadline_key_micros = q->admit_micros + window_micros;
  }
  queries_.push_back(std::move(owned));
  results_.emplace_back();
  ++open_;
  ready_.push(MakeReadyItem(q));
}

std::optional<std::future<BatchTaskResult>> OnlineScheduler::Submit(
    const BatchTask& task) {
  // Build the expensive per-task state (factory, session) outside the lock;
  // the factory callback is user code and must not run under mu_.
  auto owned = std::make_unique<OpenQuery>(task, &model_);
  std::shared_ptr<const CachedFrontier> cached;
  if (config_.frontier_cache != nullptr) {
    // Canonicalization and the cache probe both happen outside mu_; the
    // fingerprint is stamped into the retained task so Suspend()/snapshot
    // consumers (and the completion insert) reuse it.
    owned->task.fingerprint = FingerprintOf(task);
    cached = config_.frontier_cache->Lookup(owned->task.fingerprint,
                                            task.seed);
  }
  if (cached != nullptr && cached->seed == task.seed) {
    // Exact hit: this submission is a bitwise repeat of the cached
    // completed run, so its future resolves right here — no admission
    // slot, no session, no worker round-trip. The report still gets a
    // slot (keeping submission indices aligned with queries_), marked
    // served_from_cache.
    BatchTaskResult result;
    result.frontier = cached->frontier;
    result.had_deadline = task.deadline_micros > 0;
    // The full configured work was delivered instantly, so a deadline —
    // any deadline — is trivially hit.
    result.deadline_hit = result.had_deadline;
    result.served_from_cache = true;
    MutexLock lock(mu_);
    if (stopping_) return std::nullopt;
    result.index = static_cast<int>(queries_.size());
    result.admit_millis =
        static_cast<double>(epoch_.ElapsedMicros()) / 1000.0;
    queries_.push_back(nullptr);
    results_.emplace_back();
    BatchTaskResult& slot = results_.back();
    slot = result;
    if (!config_.retain_frontiers) {
      slot.frontier.clear();
      slot.frontier.shrink_to_fit();
    }
    lock.Unlock();
    std::promise<BatchTaskResult> promise;
    std::future<BatchTaskResult> ticket = promise.get_future();
    promise.set_value(std::move(result));
    return ticket;
  }
  owned->session = make_optimizer_()->NewSession();
  if (cached != nullptr) {
    // Warm hit (same shape, different seed): rebuild the cached plans
    // through this task's own factory — deterministic cost restamping —
    // and hand them to the first slice's BeginFrom(). A stale or
    // undecodable entry silently degrades to a cold start; the run is
    // correct either way.
    CheckpointReader reader(cached->plan_bytes, &owned->factory);
    std::vector<PlanPtr> warm = reader.ReadPlans();
    if (reader.ok() && reader.AtEnd() &&
        AllPlansCover(warm, task.query->AllTables())) {
      owned->warm_plans = std::move(warm);
    }
  }
  std::future<BatchTaskResult> ticket = owned->promise.get_future();
  int64_t window = task.deadline_micros > kMaxDeadlineMicros
                       ? kMaxDeadlineMicros
                       : task.deadline_micros;

  MutexLock lock(mu_);
  if (!WaitForAdmissionSlot(lock)) return std::nullopt;
  EnqueueAdmitted(std::move(owned), window);
  lock.Unlock();
  work_cv_.NotifyOne();
  return ticket;
}

std::optional<SuspendedTask> OnlineScheduler::Suspend(
    size_t submission_index) {
  MutexLock lock(mu_);
  if (submission_index >= queries_.size()) return std::nullopt;
  OpenQuery* q = queries_[submission_index].get();
  if (q == nullptr || q->suspend_requested || stopping_) return std::nullopt;
  q->suspend_requested = true;
  if (q->state == OpenQuery::RunState::kQueued) {
    RemoveFromReady(q);
    q->state = OpenQuery::RunState::kParked;
  } else {
    // A worker owns the current slice; it parks the query (instead of
    // requeueing) or finalizes it when the slice ends.
    suspend_cv_.Wait(lock, [&]() REQUIRES(mu_) {
      OpenQuery* p = queries_[submission_index].get();
      return p == nullptr || p->state == OpenQuery::RunState::kParked;
    });
    if (queries_[submission_index] == nullptr) {
      // The slice completed the task; its future is already fulfilled.
      return std::nullopt;
    }
  }

  // Parked and out of the ready queue: this thread owns the query
  // exclusively, so the (potentially large) checkpoint is serialized
  // without blocking the workers.
  lock.Unlock();
  SuspendedTask out(q->Capture(), std::move(q->promise));

  lock.Lock();
  BatchTaskResult& slot = results_[submission_index];
  slot.index = q->index;
  slot.migrated = true;
  slot.had_deadline = q->has_deadline();
  slot.optimize_millis = q->optimize_millis;
  slot.admit_millis = static_cast<double>(q->admit_micros) / 1000.0;
  slot.steps = out.state.steps;
  queries_[submission_index].reset();
  --open_;
  admit_cv_.NotifyOne();
  if (open_ == 0) drain_cv_.NotifyAll();
  return out;
}

bool OnlineScheduler::Resume(SuspendedTask& task) {
  if (task.consumed()) return false;
  {
    // A migration destination must be live: enqueueing into a scheduler
    // that was never started (or is stopping) would park the task where no
    // worker will ever run it, while its submitter waits forever. Refuse
    // up front — before the expensive restore — leaving `task` resumable
    // elsewhere. started_ never reverts, so the recheck under the
    // admission lock below only needs to watch stopping_.
    MutexLock lock(mu_);
    if (!started_ || stopping_) return false;
  }
  const WireTask& state = task.state;
  auto owned = std::make_unique<OpenQuery>(state.task, &model_);
  owned->session = make_optimizer_()->NewSession();
  if (!state.checkpoint.empty()) {
    // Restore eagerly (outside the lock) so a rejected checkpoint can be
    // reported to the caller instead of surfacing as a worker error.
    if (!owned->session->Restore(&owned->factory, &owned->rng,
                                 state.checkpoint)) {
      return false;
    }
    owned->begun = true;
  }
  owned->optimize_millis = state.optimize_millis;
  int64_t window = state.remaining_micros;
  if (window < 0) window = 0;
  if (window > kMaxDeadlineMicros) window = kMaxDeadlineMicros;

  MutexLock lock(mu_);
  if (!WaitForAdmissionSlot(lock)) return false;
  task.MarkConsumed();
  owned->promise = std::move(task.promise);
  EnqueueAdmitted(std::move(owned), window);
  lock.Unlock();
  work_cv_.NotifyOne();
  return true;
}

void OnlineScheduler::Drain() {
  Start();
  MutexLock lock(mu_);
  drain_cv_.Wait(lock, [this]() REQUIRES(mu_) { return open_ == 0; });
}

BatchReport OnlineScheduler::Stop() {
  Drain();
  {
    MutexLock lock(mu_);
    stopping_ = true;
    stop_workers_ = true;
  }
  work_cv_.NotifyAll();
  admit_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  MutexLock lock(mu_);
  BatchReport report;
  report.num_threads = std::max(1, config_.num_threads);
  report.tasks = std::move(results_);
  results_.clear();
  report.wall_millis = epoch_.ElapsedMillis();
  report.Aggregate();
  return report;
}

size_t OnlineScheduler::open_count() const {
  MutexLock lock(mu_);
  return open_;
}

size_t OnlineScheduler::submitted_count() const {
  MutexLock lock(mu_);
  return queries_.size();
}

size_t OnlineScheduler::snapshot_count() const {
  MutexLock lock(mu_);
  return snapshots_taken_;
}

OnlineScheduler::ReadyItem OnlineScheduler::MakeReadyItem(OpenQuery* query) {
  ReadyItem item;
  item.seq = seq_++;
  item.query = query;
  switch (config_.policy) {
    case SchedulingPolicy::kFifo:
      item.primary = 0.0;
      break;
    case SchedulingPolicy::kEarliestDeadlineFirst:
      item.primary = query->has_deadline()
                         ? static_cast<double>(query->deadline_key_micros)
                         : std::numeric_limits<double>::infinity();
      break;
    case SchedulingPolicy::kSlackWeighted:
      if (!query->has_deadline()) {
        item.primary = std::numeric_limits<double>::infinity();
      } else {
        double remaining =
            static_cast<double>(query->deadline.RemainingMicros());
        double steps =
            static_cast<double>(query->session->session_stats().steps);
        item.primary = remaining / (1.0 + steps);
      }
      break;
  }
  return item;
}

void OnlineScheduler::Finalize(OpenQuery* query, BatchTaskResult result,
                               std::exception_ptr error) {
  BatchTaskResult& slot = results_[static_cast<size_t>(query->index)];
  slot = result;
  if (!config_.retain_frontiers) {
    slot.frontier.clear();
    slot.frontier.shrink_to_fit();
  }
  if (error) {
    query->promise.set_exception(error);
  } else {
    query->promise.set_value(std::move(result));
  }
  queries_[static_cast<size_t>(query->index)].reset();
  --open_;
  admit_cv_.NotifyOne();
  // A Suspend() may be waiting on this query; it observes the reset slot
  // and reports that the task already finished.
  suspend_cv_.NotifyAll();
  if (open_ == 0) drain_cv_.NotifyAll();
}

void OnlineScheduler::RemoveFromReady(OpenQuery* query) {
  std::vector<ReadyItem> keep;
  keep.reserve(ready_.size());
  while (!ready_.empty()) {
    if (ready_.top().query != query) keep.push_back(ready_.top());
    ready_.pop();
  }
  for (ReadyItem& item : keep) ready_.push(item);
}

void OnlineScheduler::WorkerLoop() {
  const int slice_steps = std::max(1, config_.steps_per_slice);
  MutexLock lock(mu_);
  for (;;) {
    work_cv_.Wait(lock, [this]() REQUIRES(mu_) {
      return stop_workers_ || !ready_.empty();
    });
    // Even when stopping, drain what is ready: a requeued slice must finish
    // its task so that every admitted task's promise is fulfilled.
    if (ready_.empty()) return;
    OpenQuery* q = ready_.top().query;
    ready_.pop();
    q->state = OpenQuery::RunState::kRunning;
    lock.Unlock();

    // Run one slice without the lock; this worker owns `q` exclusively
    // until it is requeued or finalized.
    bool finished = false;
    bool snapshot_due = false;
    std::exception_ptr error;
    BatchTaskResult result;
    try {
      Stopwatch slice_watch;
      if (!q->begun) {
        if (q->warm_plans.empty()) {
          q->session->Begin(&q->factory, &q->rng);
        } else {
          q->session->BeginFrom(&q->factory, &q->rng, q->warm_plans);
          q->warm_plans.clear();
          q->warm_plans.shrink_to_fit();
        }
        q->begun = true;
      }
      for (int s = 0; s < slice_steps && !q->session->Done() &&
                      !q->deadline.Expired();
           ++s) {
        q->session->Step(q->deadline);
      }
      q->optimize_millis += slice_watch.ElapsedMillis();
      // Sample expiry once, here: the post-processing below (frontier copy
      // and sort) takes time, and a task that finished its work inside the
      // window must not be reclassified as a miss by a later clock read.
      const bool expired = q->deadline.Expired();
      finished = q->session->Done() || expired;
      if (finished) {
        result.index = q->index;
        result.frontier = CanonicalFrontier(q->session->Frontier());
        result.optimize_millis = q->optimize_millis;
        result.admit_millis = static_cast<double>(q->admit_micros) / 1000.0;
        result.elapsed_millis = epoch_.ElapsedMillis() - result.admit_millis;
        result.steps = q->session->session_stats().steps;
        result.had_deadline = q->has_deadline();
        result.gave_up = q->session->GaveUp();
        // A gave-up session (e.g. DP on an oversized query) is Done with
        // an empty frontier; being inside the window is not a hit.
        result.deadline_hit = result.had_deadline && q->session->Done() &&
                              !result.gave_up && !expired;
        if (config_.frontier_cache != nullptr && q->session->Done() &&
            !result.gave_up && !result.frontier.empty()) {
          // Cache only completed runs: a deadline-expired partial frontier
          // would poison exact hits with worse-than-cold answers. The
          // serialization happens here, outside mu_, on the worker that
          // owns the session.
          CachedFrontier entry;
          entry.fingerprint = FingerprintOf(q->task);
          entry.seed = q->task.seed;
          // Cache-internal bytes: decoded only by this process's own
          // ReadPlans, never persisted or shipped across a build boundary.
          CheckpointWriter plan_writer;  // moqo-lint: allow(checkpoint-magic)
          plan_writer.WritePlans(q->session->Frontier());
          entry.plan_bytes = plan_writer.Take();
          entry.frontier = result.frontier;
          entry.steps = result.steps;
          config_.frontier_cache->Insert(std::move(entry));
        }
      } else if (config_.snapshot_every > 0 && config_.snapshot_sink &&
                 ++q->slices_since_snapshot >= config_.snapshot_every) {
        q->slices_since_snapshot = 0;
        snapshot_due = true;
      }
    } catch (...) {
      // A throwing optimizer must not take the service down: finalize the
      // task with what it has and surface the error through its future.
      error = std::current_exception();
      finished = true;
      result.index = q->index;
      result.optimize_millis = q->optimize_millis;
      result.admit_millis = static_cast<double>(q->admit_micros) / 1000.0;
      result.elapsed_millis = epoch_.ElapsedMillis() - result.admit_millis;
      result.had_deadline = q->has_deadline();
    }

    if (snapshot_due) {
      // Still outside the lock and still the exclusive owner of `q`:
      // serialize the (pure-read) checkpoint without stalling the other
      // workers, then publish it. Snapshot time is deliberately excluded
      // from optimize_millis — it is recovery bookkeeping, not
      // optimization work — and a throwing sink is treated like a
      // throwing optimizer would be: it must not take a worker down, so
      // failures are swallowed (the next interval retries).
      try {
        config_.snapshot_sink(static_cast<size_t>(q->index), q->Capture());
      } catch (...) {
        snapshot_due = false;
      }
    }

    lock.Lock();
    if (snapshot_due) ++snapshots_taken_;
    if (!finished && q->suspend_requested) {
      // Hand the query to the waiting Suspend() instead of requeueing.
      q->state = OpenQuery::RunState::kParked;
      suspend_cv_.NotifyAll();
      continue;
    }
    if (!finished) {
      q->state = OpenQuery::RunState::kQueued;
      ready_.push(MakeReadyItem(q));
      work_cv_.NotifyOne();
      continue;
    }
    Finalize(q, std::move(result), error);
  }
}

}  // namespace moqo
