#include "plan/transformations.h"

#include <cassert>

namespace moqo {

bool IsLeftDeep(const PlanPtr& p) {
  PlanPtr node = p;
  while (node->IsJoin()) {
    if (node->inner()->IsJoin()) return false;
    node = node->outer();
  }
  return true;
}

std::vector<PlanPtr> RootMutations(const PlanPtr& p, PlanFactory* factory,
                                   PlanSpace space) {
  std::vector<PlanPtr> out;
  ForEachRootMutation(p, factory, space,
                      [&](const PlanProps&, const auto& build) {
                        out.push_back(build());
                      });
  return out;
}

int CountNodes(const PlanPtr& p) { return p->NodeCount(); }

namespace {

// Rebuilds `p` with the node at pre-order index `target` replaced by
// `replacement(node)`. Only the path from the root to the mutated node is
// rebuilt; untouched subtrees are shared. Returns nullptr if the
// replacement returned nullptr (no mutation possible at that node).
template <typename Fn>
PlanPtr ReplaceAt(const PlanPtr& p, int target, PlanFactory* factory,
                  const Fn& replacement) {
  assert(target >= 0 && target < p->NodeCount());
  if (target == 0) return replacement(p);
  assert(p->IsJoin());
  int outer_count = p->outer()->NodeCount();
  if (target <= outer_count) {
    PlanPtr outer = ReplaceAt(p->outer(), target - 1, factory, replacement);
    if (outer == nullptr) return nullptr;
    return factory->MakeJoin(std::move(outer), p->inner(), p->join_op());
  }
  PlanPtr inner =
      ReplaceAt(p->inner(), target - 1 - outer_count, factory, replacement);
  if (inner == nullptr) return nullptr;
  return factory->MakeJoin(p->outer(), std::move(inner), p->join_op());
}

// Collects each subtree in pre-order.
void CollectSubtrees(const PlanPtr& p, std::vector<PlanPtr>* out) {
  out->push_back(p);
  if (p->IsJoin()) {
    CollectSubtrees(p->outer(), out);
    CollectSubtrees(p->inner(), out);
  }
}

}  // namespace

std::vector<PlanPtr> AllNeighbors(const PlanPtr& p, PlanFactory* factory,
                                  PlanSpace space) {
  std::vector<PlanPtr> subtrees;
  CollectSubtrees(p, &subtrees);

  std::vector<PlanPtr> neighbors;
  for (int node = 0; node < static_cast<int>(subtrees.size()); ++node) {
    std::vector<PlanPtr> local =
        RootMutations(subtrees[static_cast<size_t>(node)], factory, space);
    for (const PlanPtr& mutated : local) {
      PlanPtr full = ReplaceAt(p, node, factory,
                               [&](const PlanPtr&) { return mutated; });
      assert(full != nullptr);
      neighbors.push_back(std::move(full));
    }
  }
  return neighbors;
}

PlanPtr RandomNeighbor(const PlanPtr& p, PlanFactory* factory, Rng* rng,
                       PlanSpace space) {
  int nodes = p->NodeCount();
  int target = rng->UniformInt(0, nodes - 1);
  return ReplaceAt(p, target, factory, [&](const PlanPtr& node) {
    // Count the node's mutations, draw one, and build only that one.
    int count = 0;
    ForEachRootMutation(node, factory, space,
                        [&](const PlanProps&, const auto&) { ++count; });
    if (count == 0) return PlanPtr(nullptr);
    const int pick = rng->UniformInt(0, count - 1);
    PlanPtr chosen;
    int index = 0;
    ForEachRootMutation(node, factory, space,
                        [&](const PlanProps&, const auto& build) {
                          if (index++ == pick) chosen = build();
                        });
    return chosen;
  });
}

}  // namespace moqo
