// Cross-version frontier pin: digests of the frontiers that RMQ, II and SA
// produce on fixed paper-scale queries and seeds, committed as constants.
//
// Every other bitwise gate compares two runs of the *same* build (stepped
// vs blocking, restored vs uninterrupted). This one compares against the
// frontiers an earlier build produced, so a change to how candidates are
// costed, pruned or materialized that silently alters the search fails
// here even when it is self-consistent. A digest covers, for every
// frontier plan in order, the bit patterns of its cost components and its
// ToString() rendering (join order and every operator).
//
// If a change is *meant* to alter the search, re-record the constants and
// say so in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/iterative_improvement.h"
#include "baselines/simulated_annealing.h"
#include "core/rmq.h"
#include "query/generator.h"

namespace moqo {
namespace {

constexpr uint64_t kQuerySeed = 7;
constexpr uint64_t kSessionSeed = 2016;

// FNV-1a, 64 bit.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t FrontierDigest(const std::vector<PlanPtr>& frontier) {
  Digest digest;
  for (const PlanPtr& plan : frontier) {
    for (int i = 0; i < plan->cost().size(); ++i) {
      uint64_t bits;
      const double value = plan->cost()[i];
      std::memcpy(&bits, &value, sizeof(bits));
      digest.Add(&bits, sizeof(bits));
    }
    const std::string text = plan->ToString();
    digest.Add(text.data(), text.size() + 1);
  }
  return digest.value();
}

// Runs one iteration-bounded session on a generated query with the
// paper's three metrics and returns the digest of its final frontier.
uint64_t RunAndDigest(const Optimizer& optimizer, int tables,
                      GraphType graph) {
  Rng query_rng(kQuerySeed);
  GeneratorConfig config;
  config.num_tables = tables;
  config.graph_type = graph;
  QueryPtr query = GenerateQuery(config, &query_rng);
  CostModel model({Metric::kTime, Metric::kBuffer, Metric::kDisk});
  PlanFactory factory(query, &model);
  Rng rng(kSessionSeed);
  std::unique_ptr<OptimizerSession> session = optimizer.NewSession();
  session->Begin(&factory, &rng);
  std::vector<PlanPtr> frontier = RunSession(session.get(), Deadline());
  EXPECT_TRUE(session->Done());
  EXPECT_FALSE(frontier.empty());
  return FrontierDigest(frontier);
}

Rmq BoundedRmq(PlanSpace space) {
  RmqConfig config;
  config.max_iterations = 50;
  config.plan_space = space;
  return Rmq(config);
}

TEST(FrontierPinTest, RmqChain30) {
  EXPECT_EQ(RunAndDigest(BoundedRmq(PlanSpace::kBushy), 30, GraphType::kChain),
            0x775b0a9def971bd9ull);
}

TEST(FrontierPinTest, RmqStar30) {
  EXPECT_EQ(RunAndDigest(BoundedRmq(PlanSpace::kBushy), 30, GraphType::kStar),
            0x3f469f21419645e9ull);
}

TEST(FrontierPinTest, RmqCycle30) {
  EXPECT_EQ(RunAndDigest(BoundedRmq(PlanSpace::kBushy), 30, GraphType::kCycle),
            0x3379c57d56523cf5ull);
}

TEST(FrontierPinTest, RmqLeftDeepChain30) {
  EXPECT_EQ(
      RunAndDigest(BoundedRmq(PlanSpace::kLeftDeep), 30, GraphType::kChain),
      0xbc1a1a45b86673bdull);
}

// The naive climber evaluates AllNeighbors, i.e. RootMutations applied at
// every node and rebuilt up to the root; quadratic per step, so a smaller
// query keeps the run short.
TEST(FrontierPinTest, IiNaiveChain16) {
  IiConfig config;
  config.fast_climb = false;
  config.max_iterations = 10;
  EXPECT_EQ(RunAndDigest(IterativeImprovement(config), 16, GraphType::kChain),
            0x7092a3dbf0c27964ull);
}

// SA draws RandomNeighbor moves: one RootMutations call at a random node.
TEST(FrontierPinTest, SaStar30) {
  SaConfig config;
  config.max_epochs = 200;
  EXPECT_EQ(RunAndDigest(SimulatedAnnealing(config), 30, GraphType::kStar),
            0x51c4025935ec17a9ull);
}

}  // namespace
}  // namespace moqo
