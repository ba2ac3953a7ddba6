// Cost-before-build: RMQ's climb and frontier approximation cost every
// candidate from its children's properties and materialize only what they
// keep. These tests pin the two halves of that contract:
//
//  * the properties a candidate is costed with are bitwise the properties
//    of the plan its builder returns, for every transformation rule;
//  * ApproximateFrontiers builds exactly the plans the cache admits;
//
// plus a deterministic memory gate: a fixed paper-scale session must stay
// under committed bounds on nodes built and arena bytes. The bounds hold on
// any host, so the gate fails wherever materialization creeps back.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/frontier_approximation.h"
#include "core/pareto_climb.h"
#include "core/rmq.h"
#include "plan/random_plan.h"
#include "plan/transformations.h"
#include "query/generator.h"

namespace moqo {
namespace {

struct Fixture {
  QueryPtr query;
  CostModel model;
  PlanFactory factory;

  Fixture(int tables, GraphType graph, uint64_t seed)
      : query([&] {
          Rng rng(seed);
          GeneratorConfig config;
          config.num_tables = tables;
          config.graph_type = graph;
          return GenerateQuery(config, &rng);
        }()),
        model({Metric::kTime, Metric::kBuffer, Metric::kDisk}),
        factory(query, &model) {}
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bitwise equality of every derived property.
::testing::AssertionResult PropsEqual(const PlanProps& a,
                                      const PlanProps& b) {
  if (!(a.rel == b.rel)) return ::testing::AssertionFailure() << "rel";
  if (a.cost.size() != b.cost.size()) {
    return ::testing::AssertionFailure() << "metric count";
  }
  for (int i = 0; i < a.cost.size(); ++i) {
    if (!SameBits(a.cost[i], b.cost[i])) {
      return ::testing::AssertionFailure() << "cost[" << i << "]";
    }
  }
  if (!SameBits(a.cardinality, b.cardinality)) {
    return ::testing::AssertionFailure() << "cardinality";
  }
  if (!SameBits(a.tuple_bytes, b.tuple_bytes)) {
    return ::testing::AssertionFailure() << "tuple_bytes";
  }
  if (a.format != b.format) return ::testing::AssertionFailure() << "format";
  if (a.node_count != b.node_count) {
    return ::testing::AssertionFailure() << "node_count";
  }
  return ::testing::AssertionSuccess();
}

void CollectSubtrees(const PlanPtr& p, std::vector<PlanPtr>* out) {
  out->push_back(p);
  if (p->IsJoin()) {
    CollectSubtrees(p->outer(), out);
    CollectSubtrees(p->inner(), out);
  }
}

// Every candidate the enumerator yields, at every node of random plans,
// is costed with exactly the properties of the plan its builder returns,
// and the candidates come in RootMutations order. Building a candidate
// must not cost anything again, and costing must not build anything.
void CheckEveryCandidate(PlanSpace space) {
  for (int tables : {6, 12, 30}) {
    for (GraphType graph :
         {GraphType::kChain, GraphType::kStar, GraphType::kCycle}) {
      Fixture fx(tables, graph, 11);
      Rng rng(static_cast<uint64_t>(tables));
      for (int sample = 0; sample < 4; ++sample) {
        PlanPtr plan = space == PlanSpace::kBushy
                           ? RandomPlan(&fx.factory, &rng)
                           : RandomLeftDeepPlan(&fx.factory, &rng);
        std::vector<PlanPtr> nodes;
        CollectSubtrees(plan, &nodes);
        for (const PlanPtr& node : nodes) {
          const std::vector<PlanPtr> built =
              RootMutations(node, &fx.factory, space);
          size_t index = 0;
          ForEachRootMutation(
              node, &fx.factory, space,
              [&](const PlanProps& props, const auto& build) {
                ASSERT_LT(index, built.size());
                EXPECT_TRUE(PropsEqual(props, built[index]->props()))
                    << "candidate " << index << " of "
                    << node->ToString();
                const int64_t costed = fx.factory.plans_costed();
                const int64_t before = fx.factory.plans_built();
                PlanPtr candidate = build();
                EXPECT_EQ(fx.factory.plans_costed(), costed);
                EXPECT_GE(fx.factory.plans_built(), before + 1);
                EXPECT_TRUE(PropsEqual(props, candidate->props()))
                    << "candidate " << index << " of "
                    << node->ToString();
                EXPECT_EQ(candidate->ToString(),
                          built[index]->ToString());
                ++index;
              });
          EXPECT_EQ(index, built.size());

          const int64_t before = fx.factory.plans_built();
          ForEachRootMutation(node, &fx.factory, space,
                              [](const PlanProps&, const auto&) {});
          EXPECT_EQ(fx.factory.plans_built(), before);
        }
      }
    }
  }
}

TEST(MaterializationTest, CostedCandidatesMatchBuiltPlansBushy) {
  CheckEveryCandidate(PlanSpace::kBushy);
}

TEST(MaterializationTest, CostedCandidatesMatchBuiltPlansLeftDeep) {
  CheckEveryCandidate(PlanSpace::kLeftDeep);
}

TEST(MaterializationTest, MakeJoinIsJoinPropsPlusOneNode) {
  Fixture fx(8, GraphType::kStar, 3);
  Rng rng(5);
  PlanPtr plan = RandomPlan(&fx.factory, &rng);
  const int64_t costed = fx.factory.plans_costed();
  const int64_t built = fx.factory.plans_built();
  PlanPtr again = fx.factory.Rebuild(plan);
  EXPECT_EQ(fx.factory.plans_costed() - costed, plan->NodeCount());
  EXPECT_EQ(fx.factory.plans_built() - built, plan->NodeCount());
  EXPECT_TRUE(PropsEqual(again->props(), plan->props()));
}

// ApproximateFrontiers materializes exactly the plans it inserts (joins
// and scans alike), while costing far more.
TEST(MaterializationTest, ApproximationBuildsOnlyAdmittedPlans) {
  for (GraphType graph : {GraphType::kChain, GraphType::kStar}) {
    Fixture fx(20, graph, 9);
    PlanCache cache;
    Rng rng(2016);
    int64_t inserted_total = 0;
    int64_t costed_total = 0;
    for (int i = 1; i <= 20; ++i) {
      PlanPtr optimum =
          ParetoClimb(RandomPlan(&fx.factory, &rng), &fx.factory);
      const int64_t built = fx.factory.plans_built();
      const int64_t costed = fx.factory.plans_costed();
      const int64_t inserted = ApproximateFrontiers(
          optimum, &cache, AlphaForIteration(i), &fx.factory);
      EXPECT_EQ(fx.factory.plans_built() - built, inserted)
          << "iteration " << i;
      inserted_total += inserted;
      costed_total += fx.factory.plans_costed() - costed;
    }
    EXPECT_GT(inserted_total, 0);
    EXPECT_GT(costed_total, 4 * inserted_total);
  }
}

// Memory gate: RMQ on a 30-table star query (query seed 7), session seed
// 2016, time/buffer/disk, 200 iterations. Building every candidate, as RMQ
// once did, materialized 4,227,341 nodes here (575 MB of arena); costing
// first builds 464,464 (59.5 MB) and costs 4,227,341. The bounds sit about
// 2% above the measured values. The cache itself is unchanged, which the
// checkpoint size witnesses (it changes only if the cache's contents or
// the checkpoint format do).
TEST(MaterializationTest, PaperScaleSessionMemoryGate) {
  constexpr int64_t kMaxPlansBuilt = 475000;
  constexpr size_t kMaxArenaBytes = 61 * 1000 * 1000;
  Fixture fx(30, GraphType::kStar, 7);
  RmqConfig config;
  config.max_iterations = 200;
  RmqSession session(config);
  Rng rng(2016);
  session.Begin(&fx.factory, &rng);
  RunSession(&session, Deadline());
  ASSERT_TRUE(session.Done());
  EXPECT_LE(fx.factory.plans_built(), kMaxPlansBuilt);
  EXPECT_LE(fx.factory.arena()->ApproxBytes(), kMaxArenaBytes);
  EXPECT_EQ(fx.factory.plans_costed(), 4227341);
  EXPECT_EQ(session.Checkpoint().size(), 492804u);
}

}  // namespace
}  // namespace moqo
