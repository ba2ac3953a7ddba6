// Arena storage for plan nodes.
//
// Optimizers allocate plan nodes at a high rate: RMQ's climb and frontier
// approximation cost every candidate but still materialize each one they
// keep (thousands per iteration at paper scale), SA and the naive climber
// build every neighbor they evaluate, and NSGA-II crossover rebuilds whole
// trees per generation. Allocating each node with
// `make_shared` costs one malloc plus one atomic control block per node and
// scatters nodes across the heap, so dominance sweeps chase pointers.
//
// A PlanArena instead bump-allocates POD-style plan nodes into fixed-size
// chunks with stable addresses, addressed by dense 32-bit PlanIndex values
// (the same node numbering idea the checkpoint serializer uses for node
// dedup). Ownership is amortized to a *single* control block: the factory
// hands out `PlanPtr` handles created with the aliasing `shared_ptr`
// constructor, so every escaped handle shares the arena's refcount and an
// arena dies exactly when the factory and the last escaped plan are gone.
//
// Node lifetime rules:
//  - Nodes are never freed individually; the arena is monotonic. A session
//    reclaims memory wholesale via PlanFactory::ResetArena().
//  - Child links inside a node are raw `const Plan*` into the same arena
//    (an owning pointer would make the arena reference itself and leak).
//  - `Plan::outer()/inner()` therefore return *non-owning* views; anything
//    that must outlive the factory has to come from (or be re-owned by) the
//    factory, which all construction paths already guarantee.
#ifndef MOQO_PLAN_PLAN_ARENA_H_
#define MOQO_PLAN_PLAN_ARENA_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "plan/plan.h"

namespace moqo {

/// Chunked bump allocator for Plan nodes with stable addresses and dense
/// 32-bit indices. Create via Create(); always held by shared_ptr so plan
/// handles can alias its control block.
class PlanArena {
 public:
  /// Nodes per chunk. Chunks are never reallocated, so node addresses are
  /// stable for the arena's lifetime.
  static constexpr size_t kChunkNodes = 256;

  static std::shared_ptr<PlanArena> Create() {
    return std::shared_ptr<PlanArena>(new PlanArena());
  }

  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;
  ~PlanArena();

  /// Returns a fresh zero-initialized node; the caller stamps its fields.
  /// The node's arena_index() is set to its dense index. Never invalidates
  /// previously allocated nodes.
  Plan* Allocate();

  /// Node by dense index, 0 <= i < size().
  const Plan& At(PlanIndex i) const {
    assert(i < size_);
    return chunks_[i / kChunkNodes][i % kChunkNodes];
  }

  /// Number of nodes allocated so far.
  size_t size() const { return size_; }

  /// Number of chunks backing the arena.
  size_t chunks() const { return chunks_.size(); }

  /// Bytes reserved for node storage (capacity, not just used nodes).
  size_t ApproxBytes() const;

 private:
  PlanArena() = default;

  std::vector<std::unique_ptr<Plan[]>> chunks_;
  size_t size_ = 0;
};

}  // namespace moqo

#endif  // MOQO_PLAN_PLAN_ARENA_H_
