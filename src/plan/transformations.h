// Local plan transformations (the neighborhood relation).
//
// All local-search algorithms in this repository (RMQ's ParetoClimb, II,
// SA, 2P, and the naive-climber ablation) share the standard transformation
// rule set for bushy query plans described by Steinbrunn et al. (VLDBJ'97):
//
//   1. join operator replacement   (L op R)        -> (L op' R)
//   2. scan operator replacement   Scan(t, op)     -> Scan(t, op')
//   3. commutativity               (L op R)        -> (R op L)
//   4. left associativity          ((A b B) a C)   -> (A b (B a C))
//   5. right associativity         (A a (B b C))   -> ((A a B) b C)
//   6. left join exchange          ((A b B) a C)   -> ((A b C) a B)
//   7. right join exchange         (A a (B b C))   -> (B b (A a C))
//
// Rules 4-7 preserve the operator labels of the two participating joins;
// operator changes are reachable through rules 1-2, keeping the neighbor
// count per node bounded by a constant (as assumed by the paper's
// complexity analysis, Lemma 2).
//
// The rules are enumerated in exactly one place, ForEachJoinMutation /
// ForEachRootMutation, which yields each candidate's properties (costed
// from the children, nothing allocated) together with a callback that
// builds it. RMQ's climber prunes on the properties and builds only the
// candidates it keeps; RootMutations builds every candidate.
#ifndef MOQO_PLAN_TRANSFORMATIONS_H_
#define MOQO_PLAN_TRANSFORMATIONS_H_

#include <vector>

#include "common/rng.h"
#include "plan/plan_factory.h"

namespace moqo {

/// Join-order search space (Section 4.1: the algorithm adapts to different
/// spaces by exchanging the random plan generator and the transformation
/// rule set).
enum class PlanSpace {
  /// Unconstrained bushy plans (the paper's evaluated space).
  kBushy,
  /// Left-deep plans only: every inner operand is a base-table scan. The
  /// rule set restricts to operator replacement, bottom-pair commutativity
  /// (both operands scans), and left join exchange — all of which preserve
  /// left-deep shape.
  kLeftDeep,
};

/// Enumerates every plan reachable from JoinPlan(l, r, a) by applying one
/// rule at its root (rules 1 and 3-7; child subtrees are reused
/// unchanged), without requiring that join to be built. For each candidate,
/// in RootMutations order, calls `visit(props, build)`: `props` are the
/// candidate's properties (PlanFactory::JoinProps), and `build()` returns
/// the materialized candidate, a PlanPtr whose props() equal `props`.
/// `build` may be called at most once, and only during that visit call.
template <typename Visit>
void ForEachJoinMutation(const PlanPtr& l, const PlanPtr& r, JoinAlgorithm a,
                         PlanFactory* factory, PlanSpace space,
                         Visit&& visit) {
  const bool bushy = space == PlanSpace::kBushy;
  // Every rewrite joins the same tables at its root: one statistics lookup
  // serves all root costings.
  const PlanFactory::SetStats& root =
      factory->StatsFor(l->rel().Union(r->rel()));

  // Rule 1: join operator replacement (shape-preserving in every space).
  for (JoinAlgorithm op : AllJoinAlgorithms()) {
    if (op == a) continue;
    const PlanProps props =
        factory->JoinProps(l->props(), r->props(), op, root);
    visit(props, [&] { return factory->MakeJoin(l, r, op, props); });
  }

  // Rule 3: commutativity. In the left-deep space only the bottom pair
  // (both operands scans) may swap without leaving the space.
  if (bushy || !l->IsJoin()) {
    const PlanProps props = factory->JoinProps(r->props(), l->props(), a, root);
    visit(props, [&] { return factory->MakeJoin(r, l, a, props); });
  }

  // Rules 4 and 6 require a join as outer child: L = (A b B).
  if (l->IsJoin()) {
    const PlanPtr A = l->outer();
    const PlanPtr B = l->inner();
    const JoinAlgorithm b = l->join_op();
    if (bushy) {
      // Rule 4: ((A b B) a C) -> (A b (B a C)).
      const PlanProps in = factory->JoinProps(B->props(), r->props(), a);
      const PlanProps props = factory->JoinProps(A->props(), in, b, root);
      visit(props, [&] {
        return factory->MakeJoin(A, factory->MakeJoin(B, r, a, in), b, props);
      });
    }
    // Rule 6: ((A b B) a C) -> ((A b C) a B). Left-deep preserving.
    const PlanProps in = factory->JoinProps(A->props(), r->props(), b);
    const PlanProps props = factory->JoinProps(in, B->props(), a, root);
    visit(props, [&] {
      return factory->MakeJoin(factory->MakeJoin(A, r, b, in), B, a, props);
    });
  }

  // Rules 5 and 7 require a join as inner child: R = (B b C). A left-deep
  // plan never has one, so these fire in the bushy space only.
  if (bushy && r->IsJoin()) {
    const PlanPtr B = r->outer();
    const PlanPtr C = r->inner();
    const JoinAlgorithm b = r->join_op();
    {
      // Rule 5: (A a (B b C)) -> ((A a B) b C).
      const PlanProps in = factory->JoinProps(l->props(), B->props(), a);
      const PlanProps props = factory->JoinProps(in, C->props(), b, root);
      visit(props, [&] {
        return factory->MakeJoin(factory->MakeJoin(l, B, a, in), C, b, props);
      });
    }
    // Rule 7: (A a (B b C)) -> (B b (A a C)).
    const PlanProps in = factory->JoinProps(l->props(), C->props(), a);
    const PlanProps props = factory->JoinProps(B->props(), in, b, root);
    visit(props, [&] {
      return factory->MakeJoin(B, factory->MakeJoin(l, C, a, in), b, props);
    });
  }
}

/// ForEachJoinMutation for a built plan `p`; for a scan leaf, enumerates
/// rule 2 (scan operator replacement) instead. Same visit contract.
template <typename Visit>
void ForEachRootMutation(const PlanPtr& p, PlanFactory* factory,
                         PlanSpace space, Visit&& visit) {
  if (p->IsJoin()) {
    ForEachJoinMutation(p->outer(), p->inner(), p->join_op(), factory, space,
                        visit);
    return;
  }
  // Rule 2: scan operator replacement.
  const int table = p->table();
  for (ScanAlgorithm op : AllScanAlgorithms()) {
    if (op == p->scan_op() || !factory->ScanApplicable(table, op)) continue;
    const PlanProps props = factory->ScanProps(table, op);
    visit(props, [&] { return factory->MakeScan(table, op, props); });
  }
}

/// All plans reachable from `p` by applying one rule at the *root* node
/// (child subtrees are reused unchanged), each built. Does not include `p`
/// itself.
std::vector<PlanPtr> RootMutations(const PlanPtr& p, PlanFactory* factory,
                                   PlanSpace space = PlanSpace::kBushy);

/// True if every inner operand in `p` is a scan leaf.
bool IsLeftDeep(const PlanPtr& p);

/// All complete neighbor plans reachable from `p` by applying one rule at
/// any single node (the classic neighborhood; used by SA and by the naive
/// climber ablation). O(n) rebuilds per neighbor.
std::vector<PlanPtr> AllNeighbors(const PlanPtr& p, PlanFactory* factory,
                                  PlanSpace space = PlanSpace::kBushy);

/// One uniformly random neighbor of `p` (random node, random applicable
/// rule), or nullptr if the chosen node admits no mutation. Builds only
/// the chosen mutation and the path above it. Used by SA.
PlanPtr RandomNeighbor(const PlanPtr& p, PlanFactory* factory, Rng* rng,
                       PlanSpace space = PlanSpace::kBushy);

/// Number of nodes in `p` (leaves + joins); exposed for sampling.
int CountNodes(const PlanPtr& p);

}  // namespace moqo

#endif  // MOQO_PLAN_TRANSFORMATIONS_H_
