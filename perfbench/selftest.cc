// The benchmark's own test: the traced rebuild of the RMQ iteration
// (TracedRmqLoop) must produce RmqSession's frontier bitwise, plan by plan,
// or the traced run would time a different program. Fails loudly when
// RmqSession's step changes without the rebuild following it.
//
//   $ perfbench_selftest        # exit 0 on success, 1 on a mismatch
#include <cstdio>

#include "common/rng.h"
#include "paper_pool.h"
#include "service/batch_optimizer.h"

using namespace moqo;
using namespace moqo::perfbench;

int main() {
  const CostModel model = PaperCostModel();
  int failures = 0;
  int cases = 0;
  for (GraphType shape :
       {GraphType::kChain, GraphType::kStar, GraphType::kCycle}) {
    for (uint64_t seed : {1u, 7u, 2016u}) {
      GeneratorConfig config;
      config.num_tables = 8;
      config.graph_type = shape;
      Rng query_rng(CombineSeed(seed, static_cast<uint64_t>(shape)));
      QueryPtr query = GenerateQuery(config, &query_rng);
      PlanFactory session_factory(query, &model);
      const std::vector<PlanPtr> expected =
          RunRmqSession(&session_factory, seed, 30, nullptr);
      PlanFactory traced_factory(query, &model);
      Tracer tracer;
      RmqLayerTotals totals;
      const std::vector<PlanPtr> traced =
          TracedRmqLoop(&traced_factory, seed, 30, &tracer, cases, &totals);
      ++cases;
      std::string why;
      if (!BitwiseEqual(CostsInOrder(expected), CostsInOrder(traced))) {
        std::fprintf(stderr,
                     "FAIL %s seed %llu: traced loop frontier (%zu plans) "
                     "differs from RmqSession (%zu plans)\n",
                     ToString(shape).c_str(),
                     static_cast<unsigned long long>(seed), traced.size(),
                     expected.size());
        ++failures;
      } else if (!CheckFrontierPlans(traced, &traced_factory, &why)) {
        std::fprintf(stderr, "FAIL %s seed %llu: %s\n",
                     ToString(shape).c_str(),
                     static_cast<unsigned long long>(seed), why.c_str());
        ++failures;
      } else if (totals.iterations != 30 || totals.queries != 1 ||
                 tracer.SelfMicros()["core.climb"].size() != 30) {
        std::fprintf(stderr, "FAIL %s seed %llu: wrong span/counter totals\n",
                     ToString(shape).c_str(),
                     static_cast<unsigned long long>(seed));
        ++failures;
      }
    }
  }
  std::printf("perfbench_selftest: %d/%d cases match RmqSession bitwise\n",
              cases - failures, cases);
  return failures == 0 ? 0 : 1;
}
