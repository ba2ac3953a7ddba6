// PlanFactory: the only way to construct plans.
//
// The factory binds a query and a cost model, memoizes cardinality and
// tuple-width estimates per table set (the estimate depends only on the set
// of joined tables, not on the join order), and stamps every constructed
// node with its derived properties. Centralizing construction guarantees
// that any two plans for the same query are always compared under identical
// statistics.
//
// Costing and building are separate steps. ScanProps/JoinProps compute a
// candidate node's properties without allocating (a join's from its
// children's properties alone, which may themselves be unbuilt), and the
// MakeScan/MakeJoin overloads taking those properties stamp them onto an
// arena node. Search loops cost every candidate, prune on the result, and
// build only what they keep; the plain MakeScan/MakeJoin are "cost, then
// build" in one call. JoinProps is the only place join properties are
// computed.
#ifndef MOQO_PLAN_PLAN_FACTORY_H_
#define MOQO_PLAN_PLAN_FACTORY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/table_set.h"
#include "cost/cost_model.h"
#include "plan/plan.h"
#include "plan/plan_arena.h"
#include "query/query.h"

namespace moqo {

/// Builds scan and join plans with costs under a fixed query + cost model.
class PlanFactory {
 public:
  /// The factory keeps a reference to `cost_model`; the caller must keep it
  /// alive for the factory's lifetime.
  PlanFactory(QueryPtr query, const CostModel* cost_model);

  /// The query being optimized.
  const Query& query() const { return *query_; }

  /// Shared handle to the query.
  const QueryPtr& query_ptr() const { return query_; }

  /// The cost model used for all plans from this factory.
  const CostModel& cost_model() const { return *cost_model_; }

  /// Estimated cardinality and tuple width of joining exactly a table set.
  struct SetStats {
    double cardinality;
    double tuple_bytes;
  };

  /// Memoized statistics of the tables in `s` (order-independent; the
  /// cardinality is capped at kMaxCardinality). The reference stays valid
  /// for the factory's lifetime.
  const SetStats& StatsFor(const TableSet& s);

  /// Properties of ScanPlan(table, op), computed without building it. `op`
  /// must be applicable to the table.
  PlanProps ScanProps(int table, ScanAlgorithm op);

  /// Properties of JoinPlan(outer, inner, op), computed from the children's
  /// properties alone and without allocating. Either child may be a built
  /// plan's props() or the result of another JoinProps call, so a rewrite
  /// that creates two nodes can be costed whole. The children's table sets
  /// must be disjoint and non-empty.
  PlanProps JoinProps(const PlanProps& outer, const PlanProps& inner,
                      JoinAlgorithm op);

  /// JoinProps with the joined set's statistics supplied by the caller:
  /// `joined` must be StatsFor(outer.rel.Union(inner.rel)). Loops that join
  /// many plan pairs over the same two table sets look it up once.
  PlanProps JoinProps(const PlanProps& outer, const PlanProps& inner,
                      JoinAlgorithm op, const SetStats& joined);

  /// Builds ScanPlan(table, op). `op` must be applicable to the table.
  PlanPtr MakeScan(int table, ScanAlgorithm op);

  /// Builds ScanPlan(table, op) stamped with `props`, which must be
  /// ScanProps(table, op).
  PlanPtr MakeScan(int table, ScanAlgorithm op, const PlanProps& props);

  /// Builds JoinPlan(outer, inner, op). The children's table sets must be
  /// disjoint and non-empty.
  PlanPtr MakeJoin(const PlanPtr& outer, const PlanPtr& inner,
                   JoinAlgorithm op);

  /// Builds JoinPlan(outer, inner, op) stamped with `props`, which must be
  /// JoinProps(outer->props(), inner->props(), op).
  PlanPtr MakeJoin(const PlanPtr& outer, const PlanPtr& inner,
                   JoinAlgorithm op, const PlanProps& props);

  /// Rebuilds `plan` node-for-node (same shape and operators). Used by
  /// tests to verify that cost stamping is deterministic.
  PlanPtr Rebuild(const PlanPtr& plan);

  /// True if `op` may scan `table` under the catalog.
  bool ScanApplicable(int table, ScanAlgorithm op) const;

  /// Scan operators applicable to `table` under the catalog.
  std::vector<ScanAlgorithm> ApplicableScans(int table) const;

  /// Estimated output cardinality of joining exactly the tables in `s`
  /// (order-independent; memoized; capped at kMaxCardinality).
  double Cardinality(const TableSet& s);

  /// Estimated output tuple width of the tables in `s`, in bytes.
  double TupleBytes(const TableSet& s);

  /// Number of plan nodes materialized so far (observability for benches).
  int64_t plans_built() const { return plans_built_; }

  /// Number of candidate nodes costed so far: every ScanProps/JoinProps
  /// call, including the ones inside the plain MakeScan/MakeJoin. The
  /// difference to plans_built() counts candidates that were costed and
  /// never built.
  int64_t plans_costed() const { return plans_costed_; }

  /// The arena holding every node built by this factory since the last
  /// ResetArena(). Shared so escaped PlanPtr handles keep it alive.
  const std::shared_ptr<PlanArena>& arena() const { return arena_; }

  /// Swaps in a fresh empty arena. Existing PlanPtr handles stay valid —
  /// they own the old arena, which is freed when the last of them dies.
  /// Call between queries/sessions to reclaim plan memory wholesale.
  void ResetArena();

 private:
  QueryPtr query_;
  const CostModel* cost_model_;
  std::shared_ptr<PlanArena> arena_;
  std::unordered_map<TableSet, SetStats, TableSetHash> set_stats_;
  int64_t plans_built_ = 0;
  int64_t plans_costed_ = 0;
};

}  // namespace moqo

#endif  // MOQO_PLAN_PLAN_FACTORY_H_
