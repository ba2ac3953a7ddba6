// Local Pareto frontier approximation (Algorithm 3 of the paper).
//
// Given a (locally optimal) plan, ApproximateFrontiers approximates the
// Pareto frontier of every intermediate result the plan generates: it
// traverses the plan tree in post-order and, for each node, recombines all
// cached partial plans for the node's outer and inner table sets with every
// applicable operator, pruning with the iteration-dependent approximation
// factor alpha. Cached partial plans may stem from earlier iterations and
// different join orders — this is where decomposability is exploited.
#ifndef MOQO_CORE_FRONTIER_APPROXIMATION_H_
#define MOQO_CORE_FRONTIER_APPROXIMATION_H_

#include "core/plan_cache.h"
#include "plan/plan_factory.h"

namespace moqo {

/// The paper's approximation-precision schedule: alpha = 25 * 0.99^floor(i/25),
/// clamped to >= 1. Starts coarse (fast, many join orders explored) and
/// refines as iterations progress.
double AlphaForIteration(int iteration);

/// Generalized schedule alpha = start * decay^floor(i/step), clamped to
/// >= 1; the paper's formula is (25, 0.99, 25). Exposed so deployments
/// with very different iteration throughput can rescale the refinement
/// (e.g., decay faster when time budgets are short).
double AlphaForIteration(int iteration, double start, double decay, int step);

/// Function ApproximateFrontiers (Algorithm 3): updates `cache` with
/// alpha-pruned Pareto frontiers for every intermediate result appearing in
/// `plan`. Returns the number of plans inserted into the cache, which is
/// also the number of plans it builds: candidates are costed first and
/// materialized only when the cache admits them.
int64_t ApproximateFrontiers(const PlanPtr& plan, PlanCache* cache,
                             double alpha, PlanFactory* factory);

}  // namespace moqo

#endif  // MOQO_CORE_FRONTIER_APPROXIMATION_H_
