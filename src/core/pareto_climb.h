// Fast multi-objective hill climbing (Algorithm 2 of the paper).
//
// ParetoClimb moves from a plan to a strictly dominating neighbor until no
// neighbor dominates (a local Pareto optimum). Two optimizations distinguish
// it from naive hill climbing (Section 4.2):
//
//  1. Principle of optimality: a mutation that worsens the sub-plan it was
//     applied to cannot improve the whole plan, so candidate mutations are
//     evaluated locally (constant time) instead of re-costing the full plan.
//  2. Subtree parallelism: ParetoStep recursively improves the outer and
//     inner sub-plans and recombines, so many beneficial mutations in
//     independent subtrees are applied in a single step, shortening the
//     climbing path.
//
// NaiveClimb implements the textbook single-mutation-per-step climber over
// the same neighborhood; it reaches local optima of the same quality but is
// asymptotically slower (quantified in bench/ablation_climb).
#ifndef MOQO_CORE_PARETO_CLIMB_H_
#define MOQO_CORE_PARETO_CLIMB_H_

#include <vector>

#include "common/deadline.h"
#include "plan/plan_factory.h"
#include "plan/transformations.h"

namespace moqo {

/// Observability counters filled by the climbing functions.
struct ClimbStats {
  /// Accepted climbing steps (path length to the local optimum).
  int steps = 0;
  /// Mutation candidates costed while exploring (ParetoStep materializes
  /// only the ones it keeps; NaiveClimb builds every complete neighbor).
  int64_t plans_examined = 0;
};

/// One parallel transformation step (function ParetoStep, Algorithm 2):
/// recursively improves sub-plans, recombines improved sub-plan pairs, and
/// applies all root mutations, pruning to a constant-width plan set per
/// output data representation (the paper's Lemma 2 assumes one plan per
/// node; see kMaxPerFormat in the implementation). The result is never
/// empty. Because the width is bounded, the result may not contain a weak
/// dominator of `p` itself — ParetoClimb therefore only *moves* on strict
/// dominance, which preserves the climb-never-worsens invariant.
std::vector<PlanPtr> ParetoStep(const PlanPtr& p, PlanFactory* factory,
                                ClimbStats* stats = nullptr,
                                PlanSpace space = PlanSpace::kBushy);

/// Climbs from `p` to a local Pareto optimum (function ParetoClimb,
/// Algorithm 2). An optional deadline aborts long climbs early (the
/// current best plan is returned).
PlanPtr ParetoClimb(const PlanPtr& p, PlanFactory* factory,
                    ClimbStats* stats = nullptr,
                    const Deadline& deadline = Deadline(),
                    PlanSpace space = PlanSpace::kBushy);

/// Naive climber: evaluates every complete neighbor plan, moves to one that
/// strictly dominates, repeats. Same fixed point quality, no subtree
/// parallelism, quadratic per-step cost. Used by tests and ablations.
PlanPtr NaiveClimb(const PlanPtr& p, PlanFactory* factory,
                   ClimbStats* stats = nullptr,
                   const Deadline& deadline = Deadline());

/// True if no neighbor of `p` strictly dominates `p` (local Pareto
/// optimality under the shared transformation rule set).
bool IsLocalParetoOptimum(const PlanPtr& p, PlanFactory* factory);

}  // namespace moqo

#endif  // MOQO_CORE_PARETO_CLIMB_H_
