// Partial-plan cache (the `P` of Algorithms 1 and 3).
//
// The cache maps each intermediate result (a set of joined tables) that was
// encountered in any iteration to a set of partial plans generating it,
// pruned so that no cached plan's cost can be approximated (factor alpha)
// by another cached plan with the same output representation. The cache is
// how RMQ shares Pareto-optimal partial plans across iterations: frontier
// approximation recombines cached sub-plans that may stem from *different*
// join orders than the current locally optimal plan.
//
// Each entry keeps a struct-of-arrays mirror of its plans' cost vectors
// (cost/cost_matrix.h) plus a flat output-format tag array, so the pruning
// sweep of Insert runs over contiguous doubles and bytes instead of
// dereferencing a plan node per comparison. Prune decisions are bit-for-bit
// those of the scalar implementation.
//
// The sweep needs only the candidate's cost and output format, so Insert
// takes those plus a callback that builds the plan, and builds only
// candidates it admits: frontier approximation costs every recombination
// but materializes only the few percent the cache keeps.
#ifndef MOQO_CORE_PLAN_CACHE_H_
#define MOQO_CORE_PLAN_CACHE_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/table_set.h"
#include "cost/cost_matrix.h"
#include "plan/plan.h"

namespace moqo {

/// Maps table sets to alpha-pruned sets of non-dominated partial plans.
class PlanCache {
 public:
  /// One cached table set: the plans plus flat mirrors of their cost rows
  /// and output-format tags, kept in lockstep (same order).
  struct Entry {
    std::vector<PlanPtr> plans;
    CostMatrix costs;
    std::vector<std::uint8_t> formats;
  };

  PlanCache() = default;

  /// The paper's Prune (Algorithm 3) on a costed, not yet built candidate
  /// for `rel`: unless an existing same-representation plan
  /// alpha-approximately dominates (`cost`, `format`), evicts the existing
  /// plans the candidate (factor 1) dominates, then calls `build()` — a
  /// PlanPtr with exactly that rel, cost and format — and caches the
  /// result. A rejected candidate is never built. Returns true if the
  /// candidate was inserted.
  template <typename Build>
  bool Insert(const TableSet& rel, const CostVector& cost,
              OutputFormat format, double alpha, const Build& build) {
    Entry* entry = Admit(rel, cost, format, alpha);
    if (entry == nullptr) return false;
    PlanPtr plan = build();
    assert(plan->rel() == rel && plan->format() == format &&
           plan->cost().EqualTo(cost));
    entry->costs.PushRow(cost);
    entry->formats.push_back(static_cast<std::uint8_t>(format));
    entry->plans.push_back(std::move(plan));
    return true;
  }

  /// Insert for an already built plan.
  bool Insert(const TableSet& rel, const PlanPtr& plan, double alpha) {
    assert(plan->rel() == rel);
    // The handle is copied into the entry only on acceptance: rejected
    // candidates never touch the shared_ptr control block.
    return Insert(rel, plan->cost(), plan->format(), alpha,
                  [&plan] { return plan; });
  }

  /// Cached plans for `rel`; empty if the table set was never seen.
  const std::vector<PlanPtr>& Lookup(const TableSet& rel) const;

  /// Number of distinct table sets with cached plans.
  size_t NumTableSets() const { return cache_.size(); }

  /// Total number of cached partial plans.
  size_t TotalPlans() const;

  /// Drops all entries.
  void Clear() { cache_.clear(); }

  /// Read access to the underlying map, for checkpoint serialization.
  const std::unordered_map<TableSet, Entry, TableSetHash>& entries() const {
    return cache_;
  }

  /// Replaces the entry for `rel` verbatim with a previously captured plan
  /// vector (checkpoint restore). Bypasses pruning on purpose: entries were
  /// pruned under the alpha in effect when they were inserted, so
  /// re-running Insert with the current alpha could evict plans the
  /// original cache still holds and diverge the resumed run.
  void Adopt(const TableSet& rel, std::vector<PlanPtr> plans);

 private:
  /// The admission sweep of Insert. Returns nullptr if a same-format plan
  /// alpha-dominates the candidate; otherwise removes the plans the
  /// candidate dominates and returns the entry, whose plans, costs and
  /// formats are in lockstep, for the caller to append the candidate to.
  Entry* Admit(const TableSet& rel, const CostVector& cost,
               OutputFormat format, double alpha);

  std::unordered_map<TableSet, Entry, TableSetHash> cache_;
  // Scratch keep-mask reused across inserts to avoid reallocation.
  std::vector<std::uint8_t> keep_;
};

}  // namespace moqo

#endif  // MOQO_CORE_PLAN_CACHE_H_
