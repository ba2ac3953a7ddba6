#include "core/frontier_approximation.h"

#include <cmath>

namespace moqo {

double AlphaForIteration(int iteration) {
  return AlphaForIteration(iteration, 25.0, 0.99, 25);
}

double AlphaForIteration(int iteration, double start, double decay,
                         int step) {
  double alpha = start * std::pow(decay, iteration / step);
  return alpha < 1.0 ? 1.0 : alpha;
}

int64_t ApproximateFrontiers(const PlanPtr& plan, PlanCache* cache,
                             double alpha, PlanFactory* factory) {
  int64_t inserted = 0;
  const TableSet& rel = plan->rel();
  // Every candidate is costed first; PlanCache::Insert builds only the ones
  // it admits.
  if (plan->IsJoin()) {
    // Approximate outer and inner frontiers first (post-order).
    inserted += ApproximateFrontiers(plan->outer(), cache, alpha, factory);
    inserted += ApproximateFrontiers(plan->inner(), cache, alpha, factory);
    // References into the cache stay valid below: its map is node-based
    // (inserting a new table set never moves existing entries), and the
    // loops insert only under `rel`, which differs from both child sets.
    const std::vector<PlanPtr>& outer_plans =
        cache->Lookup(plan->outer_node()->rel());
    const std::vector<PlanPtr>& inner_plans =
        cache->Lookup(plan->inner_node()->rel());
    // All candidates join the same two table sets.
    const PlanFactory::SetStats& joined = factory->StatsFor(rel);
    for (const PlanPtr& outer : outer_plans) {
      for (const PlanPtr& inner : inner_plans) {
        for (JoinAlgorithm op : AllJoinAlgorithms()) {
          const PlanProps props =
              factory->JoinProps(outer->props(), inner->props(), op, joined);
          if (cache->Insert(rel, props.cost, props.format, alpha, [&] {
                return factory->MakeJoin(outer, inner, op, props);
              })) {
            ++inserted;
          }
        }
      }
    }
  } else {
    const int table = plan->table();
    for (ScanAlgorithm op : AllScanAlgorithms()) {
      if (!factory->ScanApplicable(table, op)) continue;
      const PlanProps props = factory->ScanProps(table, op);
      if (cache->Insert(rel, props.cost, props.format, alpha,
                        [&] { return factory->MakeScan(table, op, props); })) {
        ++inserted;
      }
    }
  }
  return inserted;
}

}  // namespace moqo
