// Online optimization service: queries are admitted while the workers are
// already spinning, and a pluggable scheduling policy decides which open
// session gets the next slice.
//
// Instead of one blocking Run(tasks) call over a batch known up front
// (BatchOptimizer, the independent reference in batch_optimizer.h), the
// service has a lifecycle —
//
//   OnlineScheduler service(config, factory);
//   service.Start();                       // spin up the workers
//   auto ticket = service.Submit(task);    // thread-safe, any time
//   ticket->get();                         // per-task future
//   service.Drain();                       // wait for all admitted tasks
//   BatchReport report = service.Stop();   // join workers, final report
//
// A closed batch is the degenerate case: Submit() every task, then Stop()
// (which starts the workers, runs the backlog dry, and returns the report
// with task i in slot i).
//
// Admission: Submit() may be called from any thread, before or after
// Start() (pre-Start submissions build a backlog that the workers drain
// once started). A bounded admission window (`max_open` in-flight tasks)
// provides back-pressure: under AdmissionPolicy::kBlock a full window makes
// Submit() wait for a slot, under kReject it returns std::nullopt and the
// task is never admitted. A task's wall-clock deadline is armed at
// admission time (inside Submit), so queueing delay counts against the
// deadline exactly like in a real service.
//
// Scheduling: ready sessions live in a priority queue keyed per
// SchedulingPolicy. kFifo is round-robin (requeued slices go to the
// back). kEarliestDeadlineFirst keys
// by the admission-relative absolute deadline, so a tight-deadline query
// admitted behind loose ones overtakes them at slice granularity.
// kSlackWeighted divides the remaining deadline slack by the progress the
// session has already made, preferring urgent tasks that are still behind.
//
// Determinism contract (unchanged from the batch service): every task owns
// an independent Rng seeded from (master seed, submission index), its own
// PlanFactory, and its own session. Thread count and scheduling policy
// affect only *timing* — which tasks finish inside their deadlines — never
// the step sequence of an individual session, so iteration-bounded tasks
// produce frontiers bitwise identical to a single-thread blocking
// reference under every policy and thread count.
#ifndef MOQO_SERVICE_ONLINE_SCHEDULER_H_
#define MOQO_SERVICE_ONLINE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/thread_annotations.h"
#include "cost/cost_model.h"
#include "service/batch_optimizer.h"
#include "service/frontier_cache.h"
#include "service/wire.h"

namespace moqo {

/// Which ready session a free worker picks next.
enum class SchedulingPolicy {
  /// Strict arrival order; requeued slices go to the back (round-robin).
  kFifo,
  /// Smallest admission-relative absolute deadline first; deadline-free
  /// tasks rank last and fall back to arrival order among themselves.
  kEarliestDeadlineFirst,
  /// Remaining deadline slack divided by executed steps: urgent tasks that
  /// have made little progress run first. Recomputed at every requeue.
  kSlackWeighted,
};

/// What Submit() does when the admission window is full.
enum class AdmissionPolicy {
  /// Block the submitting thread until an in-flight task completes.
  kBlock,
  /// Return std::nullopt immediately; the task is not admitted.
  kReject,
};

/// A task drained off a scheduler mid-run by Suspend(): its task state
/// (request, session checkpoint, unexpired deadline budget, accounting)
/// and the promise feeding the future handed out by the original
/// Submit(). Resume() re-admits it to any scheduler instance whose
/// optimizer configuration and cost metrics match — the in-process
/// stand-in for migrating a session between worker processes — and the
/// original future then delivers the final result. Destroying a
/// SuspendedTask without resuming it fails that future with a descriptive
/// std::runtime_error (not a bare broken_promise), exactly like a
/// migration coordinator reporting a task lost in transit.
struct SuspendedTask {
  /// Pairs a task state — e.g. one decoded from a wire frame — with the
  /// reply channel (in-process: the promise carried out of Suspend(); a
  /// cross-process transport mints a promise whose future it forwards
  /// back over its own connection).
  SuspendedTask(WireTask state, std::promise<BatchTaskResult> promise)
      : state(std::move(state)), promise(std::move(promise)) {}
  SuspendedTask(SuspendedTask&&) noexcept = default;
  /// Abandons any live un-resumed promise this object currently holds
  /// (failing its future descriptively) before adopting `other`'s state.
  SuspendedTask& operator=(SuspendedTask&& other) noexcept;
  SuspendedTask(const SuspendedTask&) = delete;
  SuspendedTask& operator=(const SuspendedTask&) = delete;
  /// Fails the original Submit() future with a descriptive exception if
  /// the task was never resumed. A dropped migration must surface as an
  /// explicit error at the submitter, not as an opaque broken promise.
  ~SuspendedTask();

  /// Everything Resume() needs besides the reply channel; exactly what a
  /// wire frame carries (EncodeWireTask(state)).
  WireTask state;
  /// Fulfills the future returned by the original Submit().
  std::promise<BatchTaskResult> promise;
  /// Free-form provenance ("shard 3, route key 0x9f…") stamped by whoever
  /// drained the task; included in the abandonment error so a dropped
  /// migration names the shard it was lost in transit from.
  std::string origin;

  /// True once the promise has moved on: set by a successful Resume() — a
  /// second Resume() of the same object returns false instead of admitting
  /// a duplicate whose moved-from promise would blow up at finalization —
  /// or by MarkConsumed() when a transport moves the promise into a rebuilt
  /// task (see service/wire.h), which keeps the destructor from failing the
  /// moved-away future.
  ///
  /// Ownership contract (why this is deliberately NOT guarded by a mutex):
  /// a SuspendedTask has exactly one owner at a time — the thread that
  /// drained it via Suspend(), then whichever thread it is std::moved to —
  /// and only the current owner may call Resume()/MarkConsumed()/the
  /// destructor. The flag is private so every mutation goes through those
  /// single-owner entry points; concurrent access would be a bug in the
  /// caller's hand-off, not in this type.
  bool consumed() const { return consumed_; }

  /// Records that the promise was moved out (e.g. into a transport frame
  /// or a rebuilt task), so neither the destructor nor a later Resume()
  /// touches the moved-away future. Single-owner, like consumed().
  void MarkConsumed() { consumed_ = true; }

 private:
  /// Destructor/move-assign helper: fails the promise if still live.
  void Abandon() noexcept;

  bool consumed_ = false;
};

/// Configuration for one OnlineScheduler instance.
struct OnlineConfig {
  /// Worker threads serving all open sessions.
  int num_threads = 1;
  /// Cost metrics every task is optimized under.
  std::vector<Metric> metrics = {Metric::kTime, Metric::kBuffer};
  /// Session steps per scheduling slice (clamped to >= 1). Larger slices
  /// amortize scheduling overhead; smaller slices tighten the interleaving
  /// and let a deadline-aware policy preempt sooner.
  int steps_per_slice = 1;
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Bound on admitted-but-unfinished tasks (the admission window);
  /// 0 = unbounded.
  size_t max_open = 0;
  /// If false, a finalized task's frontier is delivered only through its
  /// Submit() future and dropped from the retained report slot, so a
  /// long-lived service holds just a small fixed-size record per
  /// submission (plus the max_open live sessions) instead of every
  /// frontier it ever produced. Keep true (the default) for closed
  /// batches whose Stop() report frontiers are compared to a reference.
  bool retain_frontiers = true;
  /// Every `snapshot_every` completed slices a live task is checkpointed
  /// at the slice boundary and published through snapshot_sink — the
  /// recovery substrate supervised failover replays from. 0 (the default)
  /// disables snapshots. Checkpointing is a pure read of the session, so
  /// enabling snapshots never changes results; it only costs the
  /// serialization time (outside the scheduler lock, off the slice's
  /// optimize_millis accounting).
  int snapshot_every = 0;
  /// Receives the periodic snapshots: the task's submission index on this
  /// scheduler and its state at the slice boundary — everything Resume()
  /// needs except the promise. A supervisor holds these as recovery state
  /// and, should the scheduler's process die, replays the task elsewhere
  /// from its last snapshot (re-running only the steps after it; the
  /// checkpoint restores bitwise, so iteration-bounded results are
  /// unaffected by the replay). Invoked from worker threads while the task
  /// keeps running, so the sink must be thread-safe and fast (hand the
  /// snapshot off, don't process it inline). Ignored when null or
  /// snapshot_every == 0.
  std::function<void(size_t submission_index, WireTask&&)> snapshot_sink;
  /// Optional frontier cache consulted by Submit() before admission and
  /// fed by task completion (see service/frontier_cache.h). Shared so
  /// several scheduler generations (e.g. one per shardd connection) and
  /// external observers can use one cache. Semantics, keyed by the task's
  /// canonical query fingerprint:
  ///  * exact hit (same fingerprint and seed as the cached completed run):
  ///    Submit() resolves the future immediately from the cached frontier
  ///    without consuming an admission slot or opening a session; the
  ///    report slot records served_from_cache with zero steps.
  ///  * warm hit (same fingerprint, different seed): the session starts
  ///    via BeginFrom() seeded with the cached plans rebuilt through the
  ///    task's own factory — the step sequence is unchanged, only the
  ///    reported frontier is (weakly) improved.
  ///  * completions that are Done and not gave-up insert their frontier;
  ///    deadline-expired partial frontiers are never cached.
  /// Null (the default) disables caching entirely.
  std::shared_ptr<FrontierCache> frontier_cache;
};

/// A long-lived deadline-aware optimization service multiplexing admitted
/// queries over a fixed worker pool. Thread-safe: Submit()/Drain()/
/// open_count() may be called concurrently from any thread. Start() and
/// Stop() must each be called at most once, from one thread.
///
/// Memory: the Stop() report covers every admitted task, so the service
/// keeps one result record per submission for its whole lifetime. The
/// dominant term — the result frontiers — can be dropped as each future
/// is delivered via OnlineConfig::retain_frontiers = false.
class OnlineScheduler {
 public:
  OnlineScheduler(OnlineConfig config, OptimizerFactory make_optimizer);

  /// Stops the service (draining admitted work) if Stop() was not called.
  ~OnlineScheduler();

  OnlineScheduler(const OnlineScheduler&) = delete;
  OnlineScheduler& operator=(const OnlineScheduler&) = delete;

  /// Spins up the worker threads. Idempotent; called implicitly by Drain().
  void Start() EXCLUDES(mu_);

  /// Admits one task and returns a future for its result, or std::nullopt
  /// if the task was rejected (full window under kReject, or the service
  /// is stopping). The task's deadline (if any) starts now, not when the
  /// first slice runs. Under kBlock with a full window, blocks until a
  /// slot frees up — which requires the workers to be running, so only
  /// call pre-Start Submit() on a bounded window if it cannot fill up.
  std::optional<std::future<BatchTaskResult>> Submit(const BatchTask& task)
      EXCLUDES(mu_);

  /// Blocks until every admitted task has completed (session done or
  /// deadline expired). Starts the workers if Start() was never called.
  /// Tasks submitted by other threads while draining extend the wait.
  /// Tasks migrated away by Suspend() released their slot at suspension,
  /// so Drain() never waits on them — even if the suspended task was
  /// abandoned and will never finish anywhere.
  void Drain() EXCLUDES(mu_);

  /// Drains, joins the workers, and returns the aggregated report over all
  /// admitted tasks in submission order. After Stop() every Submit() is
  /// rejected; the scheduler cannot be restarted.
  BatchReport Stop() EXCLUDES(mu_);

  /// Drains one admitted-but-unfinished task off this scheduler.
  /// `submission_index` is the task's zero-based admission order — the
  /// position of its result in the Stop() report. If the task is currently
  /// running a slice, blocks until that slice completes (suspension happens
  /// only at slice boundaries, where the session state is checkpointable).
  /// Returns std::nullopt if the index is invalid, the task already
  /// finished (its future is already fulfilled), it was already suspended,
  /// or the scheduler is stopping. On success the task's report slot is
  /// marked migrated and its admission-window slot is released.
  std::optional<SuspendedTask> Suspend(size_t submission_index)
      EXCLUDES(mu_);

  /// Re-admits a suspended task — from this scheduler or another instance
  /// with the same optimizer configuration and metrics — restoring its
  /// session from the checkpoint and re-arming the remaining deadline
  /// window. Admission back-pressure applies exactly like Submit().
  /// Returns false, leaving `task` intact for a retry elsewhere, if the
  /// scheduler is not running (Start() never called, or Stop() begun — a
  /// migration destination must be live, or the work would be enqueued
  /// for workers that never run it), the window is full under kReject, or
  /// the checkpoint is rejected (wrong algorithm or corrupt buffer). On
  /// success `task` is consumed and the original Submit() future will
  /// deliver the task's final result from this scheduler.
  bool Resume(SuspendedTask& task) EXCLUDES(mu_);

  const OnlineConfig& config() const { return config_; }

  /// Admitted-but-unfinished tasks.
  size_t open_count() const EXCLUDES(mu_);

  /// Tasks admitted so far (completed or not; excludes rejected).
  size_t submitted_count() const EXCLUDES(mu_);

  /// Periodic snapshots published so far (see OnlineConfig::snapshot_every).
  size_t snapshot_count() const EXCLUDES(mu_);

 private:
  struct OpenQuery;

  /// One entry of the ready queue; lower (primary, seq) runs first.
  struct ReadyItem {
    double primary = 0.0;
    uint64_t seq = 0;
    OpenQuery* query = nullptr;
    bool operator>(const ReadyItem& other) const {
      if (primary != other.primary) return primary > other.primary;
      return seq > other.seq;
    }
  };

  void WorkerLoop() EXCLUDES(mu_);
  /// Computes the ready-queue key for `query` under the configured policy
  /// (seq_ is guarded); called at admission and at every requeue.
  ReadyItem MakeReadyItem(OpenQuery* query) REQUIRES(mu_);
  /// Records `result` into the task's report slot (dropping the frontier
  /// there unless config_.retain_frontiers), fulfills the promise with the
  /// full result or with `error`, destroys the per-task state, and
  /// releases the admission slot.
  void Finalize(OpenQuery* query, BatchTaskResult result,
                std::exception_ptr error) REQUIRES(mu_);
  /// Waits for an admission-window slot (kBlock) or reports rejection
  /// (kReject / stopping). `lock` holds mu_ (it is what the wait sleeps
  /// on); shared by Submit() and Resume().
  bool WaitForAdmissionSlot(MutexLock& lock) REQUIRES(mu_);
  /// Assigns the submission index, arms the deadline window
  /// (`window_micros`, already clamped; ignored unless the query has a
  /// deadline), and enqueues the first slice.
  void EnqueueAdmitted(std::unique_ptr<OpenQuery> owned,
                       int64_t window_micros) REQUIRES(mu_);
  /// Rebuilds ready_ without `query`'s entry (Suspend of a queued task).
  /// Seq keys are preserved, so relative order is unchanged.
  void RemoveFromReady(OpenQuery* query) REQUIRES(mu_);

  OnlineConfig config_;
  OptimizerFactory make_optimizer_;
  CostModel model_;
  /// Epoch of all admit/finish timestamps: construction time.
  Stopwatch epoch_;

  mutable Mutex mu_;
  CondVar work_cv_;     // workers: ready work or shutdown
  CondVar admit_cv_;    // Submit(kBlock): window slot freed
  CondVar drain_cv_;    // Drain()/Stop(): open_ hit zero
  CondVar suspend_cv_;  // Suspend(): slice parked/finished
  /// Written by Start() (under mu_, at most once) and joined by Stop()
  /// without the lock — joining under mu_ would deadlock the workers. The
  /// Start/Stop at-most-once contract makes that hand-off safe unguarded.
  std::vector<std::thread> workers_;
  std::priority_queue<ReadyItem, std::vector<ReadyItem>, std::greater<>>
      ready_ GUARDED_BY(mu_);
  /// Keeps every admitted task's state alive at a stable address; the slot
  /// is released (reset) once the task is finalized.
  std::vector<std::unique_ptr<OpenQuery>> queries_ GUARDED_BY(mu_);
  /// Result slot i belongs to submission index i; filled at finalization.
  std::vector<BatchTaskResult> results_ GUARDED_BY(mu_);
  /// Ready-queue tie-breaker, bumped on every push.
  uint64_t seq_ GUARDED_BY(mu_) = 0;
  /// Admitted-but-unfinished tasks.
  size_t open_ GUARDED_BY(mu_) = 0;
  /// Periodic snapshots published through config_.snapshot_sink.
  size_t snapshots_taken_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
  /// No further admissions (Stop() has begun).
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Workers exit once ready_ runs empty.
  bool stop_workers_ GUARDED_BY(mu_) = false;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_ONLINE_SCHEDULER_H_
