// Immutable query plan trees.
//
// A plan is a labeled binary tree (Section 3 of the paper): leaves are
// ScanPlan(table, scanOp) nodes and inner nodes are JoinPlan(outer, inner,
// joinOp) nodes. Plans are immutable and share sub-plans structurally, so
// the plan cache, Pareto archives, and optimizers keep each cached plan at
// O(1) additional space exactly as the paper's space analysis (Theorem 5)
// assumes.
//
// Every node carries its derived properties (PlanProps): the joined table
// set `rel`, the estimated output cardinality and tuple width, the output
// data representation, and the full cost vector under the factory's cost
// model. The cost model is additive, so the PlanFactory computes a join's
// properties from its children's properties alone — optimizers cost and
// prune a candidate before deciding to build it, and a built node stores
// exactly the properties its candidate was costed with.
//
// Storage and ownership: nodes live in the factory's PlanArena (see
// plan_arena.h) as trivially destructible values, not as individual heap
// objects. A PlanPtr is still a `shared_ptr<const Plan>`, but handles from
// the factory are *aliasing* pointers that own the whole arena rather than
// one node — refcounting is per-arena, so a frontier that escapes a session
// keeps its arena (and hence every reachable sub-plan) alive with a single
// control block. Child links are raw pointers into the same arena;
// `outer()`/`inner()` return non-owning views that are valid as long as any
// owning handle to the tree (or the factory) exists.
#ifndef MOQO_PLAN_PLAN_H_
#define MOQO_PLAN_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/table_set.h"
#include "cost/cost_vector.h"
#include "cost/operators.h"

namespace moqo {

class Plan;
class PlanArena;

/// Shared handle to an immutable plan node. Handles returned by PlanFactory
/// own the node's arena (aliasing shared_ptr); handles returned by
/// Plan::outer()/inner() are non-owning views into a live tree.
using PlanPtr = std::shared_ptr<const Plan>;

/// Dense per-arena node index (allocation order). 32 bits: no realistic
/// optimization run allocates 4B nodes in one session.
using PlanIndex = std::uint32_t;

/// arena_index() value of a node not allocated from an arena.
inline constexpr PlanIndex kInvalidPlanIndex = ~PlanIndex{0};

/// Derived properties of a (possibly not yet built) plan node: everything
/// a node carries apart from its children and operator labels. Computed by
/// PlanFactory::ScanProps / JoinProps without allocating a node.
struct PlanProps {
  /// Set of joined tables.
  TableSet rel;
  /// Cost vector under the factory's cost model.
  CostVector cost;
  /// Estimated output cardinality (rows).
  double cardinality = 0.0;
  /// Estimated output tuple width (bytes).
  double tuple_bytes = 0.0;
  /// Output data representation.
  OutputFormat format = OutputFormat::kUnsorted;
  /// Nodes in the subtree (2 * |rel| - 1).
  int node_count = 1;
};

/// One node of an immutable plan tree. Construct via PlanFactory.
class Plan {
 public:
  /// True for join nodes (|rel| > 1), false for scan leaves.
  bool IsJoin() const { return outer_ != nullptr; }

  /// Set of tables joined by this (sub-)plan.
  const TableSet& rel() const { return props_.rel; }

  /// Outer child (join nodes only). Non-owning view: valid while an owning
  /// handle to this tree (or its factory) is alive; re-own via the factory
  /// if it must escape.
  PlanPtr outer() const { return PlanPtr(PlanPtr(), outer_); }

  /// Inner child (join nodes only). Non-owning view; see outer().
  PlanPtr inner() const { return PlanPtr(PlanPtr(), inner_); }

  /// Outer child as a raw pointer (join nodes only).
  const Plan* outer_node() const { return outer_; }

  /// Inner child as a raw pointer (join nodes only).
  const Plan* inner_node() const { return inner_; }

  /// Scanned table id (scan leaves only).
  int table() const { return table_; }

  /// Scan operator (scan leaves only).
  ScanAlgorithm scan_op() const { return scan_op_; }

  /// Join operator (join nodes only).
  JoinAlgorithm join_op() const { return join_op_; }

  /// Cost vector under the owning factory's cost model.
  const CostVector& cost() const { return props_.cost; }

  /// Estimated output cardinality (rows).
  double cardinality() const { return props_.cardinality; }

  /// Estimated output tuple width (bytes).
  double tuple_bytes() const { return props_.tuple_bytes; }

  /// Output data representation; the `SameOutput` test of Algorithms 2/3
  /// compares this tag.
  OutputFormat format() const { return props_.format; }

  /// Total number of nodes in this subtree (2 * |rel| - 1).
  int NodeCount() const { return props_.node_count; }

  /// All derived properties at once (the input of PlanFactory::JoinProps).
  const PlanProps& props() const { return props_; }

  /// Dense index of this node within its arena (allocation order), or
  /// kInvalidPlanIndex if the node was not arena-allocated.
  PlanIndex arena_index() const { return arena_index_; }

  /// Renders e.g. "((T0 HJ T1) SM T2)" for debugging and logs.
  std::string ToString() const;

 private:
  friend class PlanFactory;
  friend class PlanArena;
  Plan() = default;

  PlanProps props_;
  // Raw pointers into the same arena: an owning child handle would make the
  // arena keep itself alive. Parent handles own the arena, which owns the
  // children, so the links can never dangle while a tree is reachable.
  const Plan* outer_ = nullptr;
  const Plan* inner_ = nullptr;
  int table_ = -1;
  ScanAlgorithm scan_op_ = ScanAlgorithm::kFullScan;
  JoinAlgorithm join_op_ = JoinAlgorithm::kNestedLoop;
  PlanIndex arena_index_ = kInvalidPlanIndex;
};

/// True if `a` and `b` produce the same output data representation; plans
/// with different representations are never pruned against each other.
inline bool SameOutput(const Plan& a, const Plan& b) {
  return a.format() == b.format();
}

/// The paper's `Better` (Algorithm 2): same output representation and
/// strictly dominating cost.
inline bool BetterPlan(const Plan& a, const Plan& b) {
  return SameOutput(a, b) && a.cost().StrictlyDominates(b.cost());
}

/// The paper's `SigBetter` (Algorithm 3): same output representation and
/// approximately dominating cost with coarsening factor alpha.
inline bool SigBetterPlan(const Plan& a, const Plan& b, double alpha) {
  return SameOutput(a, b) && a.cost().ApproxDominates(b.cost(), alpha);
}

}  // namespace moqo

#endif  // MOQO_PLAN_PLAN_H_
