// RMQ — the paper's randomized multi-objective query optimizer
// (Algorithm 1: RandomMOQO).
//
// Each iteration (i) samples a uniformly random bushy plan, (ii) improves it
// to a local Pareto optimum with the fast multi-objective hill climber of
// Algorithm 2, and (iii) approximates the Pareto frontier of every
// intermediate result of the locally optimal plan (Algorithm 3), sharing
// partial plans across iterations through the plan cache. The approximation
// precision alpha is refined over iterations, so a coarse approximation of
// the whole frontier appears quickly and converges toward the exact Pareto
// set as time passes.
//
// RmqSession exposes the algorithm incrementally: one Step() is one RMQ
// iteration, and the plan cache plus all run counters live in the session,
// so Rmq objects are stateless and shareable.
#ifndef MOQO_CORE_RMQ_H_
#define MOQO_CORE_RMQ_H_

#include <memory>
#include <vector>

#include "core/optimizer.h"
#include "core/pareto_climb.h"
#include "core/plan_cache.h"
#include "plan/transformations.h"

namespace moqo {

/// Tunables and ablation switches for RMQ.
struct RmqConfig {
  /// Join-order search space: unconstrained bushy (the paper's default) or
  /// left-deep only (Section 4.1 notes the algorithm adapts by swapping
  /// the random plan generator and the transformation rule set).
  PlanSpace plan_space = PlanSpace::kBushy;
  /// If false, skips the hill-climbing phase and approximates frontiers
  /// directly around the random plan (ablation: value of local search).
  bool use_climb = true;
  /// If false, the plan cache is cleared before every iteration, disabling
  /// cross-iteration sharing of partial plans (ablation: value of
  /// decomposability).
  bool share_cache = true;
  /// If >= 1, overrides the iteration-dependent alpha schedule with a fixed
  /// approximation factor (ablation: value of precision refinement).
  double fixed_alpha = 0.0;
  /// Alpha schedule alpha = start * decay^floor(i/step); defaults are the
  /// paper's formula 25 * 0.99^floor(i/25).
  double alpha_start = 25.0;
  double alpha_decay = 0.99;
  int alpha_step = 25;
  /// Stop after this many iterations (0 = until deadline).
  int max_iterations = 0;
};

/// Counters accumulated over one session (one run).
struct RmqStats {
  int iterations = 0;
  /// Climbing path lengths, one entry per iteration (Figure 3, left).
  std::vector<int> path_lengths;
  /// Total plans inserted into the plan cache by frontier approximation
  /// (only admitted candidates are built, so also the plans it built).
  int64_t frontier_insertions = 0;
  /// Result frontier size after the most recent iteration (Figure 3,
  /// right).
  size_t final_frontier_size = 0;
};

/// Approximation factor used in iteration `iteration` under `config`
/// (fixed override or the paper's schedule).
double RmqAlphaFor(const RmqConfig& config, int iteration);

/// One incremental RMQ run; each Step() is one Algorithm-1 iteration.
class RmqSession : public OptimizerSession {
 public:
  explicit RmqSession(RmqConfig config = RmqConfig()) : config_(config) {}

  std::vector<PlanPtr> CurrentFrontier() const override;
  bool Done() const override;

  /// Statistics of this run so far.
  const RmqStats& stats() const { return stats_; }

 protected:
  void OnBegin() override;
  bool DoStep(const Deadline& budget) override;
  const char* CheckpointTag() const override { return "rmq"; }
  void OnCheckpoint(CheckpointWriter* writer) const override;
  bool OnRestore(CheckpointReader* reader) override;

 private:
  RmqConfig config_;
  RmqStats stats_;
  PlanCache cache_;
  TableSet all_;
  int next_iteration_ = 1;
};

/// The paper's algorithm (called "RMQ" in Sections 5 and 6).
class Rmq : public Optimizer {
 public:
  explicit Rmq(RmqConfig config = RmqConfig()) : config_(config) {}

  std::string name() const override;

  std::unique_ptr<OptimizerSession> NewSession() const override {
    return std::make_unique<RmqSession>(config_);
  }

  /// Approximation factor used in the given iteration (schedule or fixed
  /// override). Exposed for tests.
  double AlphaFor(int iteration) const {
    return RmqAlphaFor(config_, iteration);
  }

 private:
  RmqConfig config_;
};

}  // namespace moqo

#endif  // MOQO_CORE_RMQ_H_
