// The paper-scale query pool, its committed reference frontiers, the two
// ways of running RMQ on it (the library's RmqSession and a traced rebuild
// of its iteration from the public layer functions), and the output checks
// every frontier must pass.
#ifndef MOQO_PERFBENCH_PAPER_POOL_H_
#define MOQO_PERFBENCH_PAPER_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "cost/cost_model.h"
#include "plan/plan_factory.h"
#include "query/generator.h"

namespace moqo {
namespace perfbench {

/// One query of the paper-scale pool.
struct PoolQuery {
  /// "<shape>-<tables>", e.g. "star-50"; the key of its reference.
  std::string name;
  GraphType shape = GraphType::kChain;
  int tables = 0;
  /// RMQ iterations per run: keeps one run near a second and its plan
  /// arena below 1 GB at the seed commit.
  int iterations = 0;
  QueryPtr query;
  uint64_t fingerprint = 0;
};

/// Session seed of the runs alpha_err is measured on (every benchmark seed
/// measures the same runs, so alpha_err moves only if the search changes).
inline constexpr uint64_t kCanonicalSessionSeed = 2016;

/// Chain, star and cycle queries with 30, 50 and 100 tables (Steinbrunn
/// selectivities), generated from fixed seeds: 9 queries.
std::vector<PoolQuery> MakePaperPool();

/// The paper's three metrics: time, buffer, disk.
CostModel PaperCostModel();

/// A committed reference frontier of one pool query.
struct Reference {
  std::string name;
  uint64_t fingerprint = 0;
  std::vector<CostVector> frontier;
};

/// Reads the reference file (hex-float cost vectors, bit exact).
bool ReadReferences(const std::string& path, std::vector<Reference>* out,
                    std::string* error);
/// Writes `refs` in the format ReadReferences parses; `comment` lines are
/// prefixed with '#'.
bool WriteReferences(const std::string& path,
                     const std::vector<std::string>& comment,
                     const std::vector<Reference>& refs);
/// Pairs each pool query with its reference by name. Fails when one is
/// missing or when the regenerated query's fingerprint differs from the
/// committed one (the reference would then describe another query).
bool MatchReferences(const std::vector<PoolQuery>& pool,
                     const std::vector<Reference>& refs,
                     std::vector<const Reference*>* matched,
                     std::string* error);

/// Runs RmqSession (default configuration, `iterations` steps) on a fresh
/// Rng(seed), appending each Step()'s wall time in ms to `step_ms` if set.
std::vector<PlanPtr> RunRmqSession(PlanFactory* factory, uint64_t seed,
                                   int iterations,
                                   std::vector<double>* step_ms);

/// Counters of the traced RMQ loop, summed over every traced query.
struct RmqLayerTotals {
  int64_t queries = 0;
  int64_t iterations = 0;
  int64_t climb_steps = 0;
  int64_t climb_plans_examined = 0;
  int64_t built_random = 0;
  int64_t built_climb = 0;
  int64_t built_approx = 0;
  int64_t approx_inserted = 0;
  double arena_bytes = 0.0;
  /// Sampled once per query, after its last iteration.
  double cache_plans = 0.0;
  double cache_table_sets = 0.0;
  double checkpoint_bytes = 0.0;
  double checkpoint_us = 0.0;
};

/// RmqSession's iteration rebuilt from the public layer functions —
/// RandomPlan, ParetoClimb, ApproximateFrontiers(AlphaForIteration(i)) on a
/// private PlanCache — with one span per phase under an "rmq.iteration"
/// span under an "rmq.query" span (id `query_id`). After the last
/// iteration it serializes the cache with WritePlanCache (span
/// "core.checkpoint"). Returns the full-query frontier, which must equal
/// RunRmqSession's bitwise for the same seed.
std::vector<PlanPtr> TracedRmqLoop(PlanFactory* factory, uint64_t seed,
                                   int iterations, Tracer* tracer,
                                   int64_t query_id, RmqLayerTotals* totals);

/// Adds the per-layer metrics of the traced loop to `out`: mean self time
/// of each phase span and mean counters per iteration, cache and
/// checkpoint figures per query, minor faults per traced iteration, and
/// the share of `untraced_step_ms` (the summed RmqSession Step() times of
/// the same runs) that the phase spans account for. Returns the summed
/// traced iteration time in ms.
double AddRmqLayerMetrics(const Tracer& tracer, const RmqLayerTotals& totals,
                          double untraced_step_ms, double minor_faults,
                          RunResult* out);

/// True if every cost of `cost` is finite and positive.
bool FinitePositive(const CostVector& cost);

/// Output checks on one frontier: non-empty; every plan joins all tables;
/// every cost is finite and positive; PlanFactory::Rebuild reproduces each
/// plan's cost vector bitwise.
bool CheckFrontierPlans(const std::vector<PlanPtr>& plans,
                        PlanFactory* factory, std::string* why);

/// The plans' cost vectors in stored order (BitwiseEqual on two of these
/// compares frontiers plan by plan, not only as sets).
std::vector<CostVector> CostsInOrder(const std::vector<PlanPtr>& plans);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_PAPER_POOL_H_
