// Builds the reference frontiers alpha_err is measured against.
//
// Exact DP is out of reach at paper scale (DP(1) already needs seconds at 8
// tables and more than 8 GB at 10), so each reference is the
// Pareto-filtered union of
//   * RMQ runs over kReferenceSeeds seeds, each at kBudgetFactor times the
//     benchmark's iteration budget for the query, and
//   * one NSGA-II run at kNsgaGenerations generations,
// stored with the query's canonical fingerprint. The recipe is fixed here,
// so a rebuilt file measures alpha_err against the same baseline. The
// benchmark refuses to run when a regenerated query's fingerprint differs
// from the stored one. Run once after changing the pool or the generator,
// then commit the file:
//
//   $ make_references [--out=perfbench/references.txt]
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/nsga2.h"
#include "common/flags.h"
#include "common/rng.h"
#include "paper_pool.h"
#include "pareto/epsilon_indicator.h"
#include "service/batch_optimizer.h"

using namespace moqo;
using namespace moqo::perfbench;

namespace {

/// Seeds of the reference RMQ runs; disjoint from the benchmark's
/// canonical session seed.
constexpr uint64_t kReferenceSeed = 77;
constexpr int kReferenceSeeds = 3;
/// Iteration budget of each reference RMQ run, in multiples of the
/// benchmark's budget for the query.
constexpr int kBudgetFactor = 4;
constexpr int kNsgaGenerations = 40;
/// Queries built in parallel.
constexpr int kJobs = 2;

std::vector<CostVector> RunNsga2(PlanFactory* factory, uint64_t seed) {
  Nsga2Config config;
  config.max_generations = kNsgaGenerations;
  Nsga2Session session(config);
  Rng rng(seed);
  session.Begin(factory, &rng);
  while (!session.Done()) session.Step();
  return CanonicalFrontier(session.Frontier());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "perfbench/references.txt");

  const std::vector<PoolQuery> pool = MakePaperPool();
  const CostModel model = PaperCostModel();
  std::vector<Reference> refs(pool.size());
  std::vector<std::string> notes(pool.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < pool.size(); i = next++) {
      const PoolQuery& q = pool[i];
      std::vector<std::vector<CostVector>> parts;
      for (int s = 0; s < kReferenceSeeds; ++s) {
        PlanFactory factory(q.query, &model);
        parts.push_back(CanonicalFrontier(
            RunRmqSession(&factory, CombineSeed(kReferenceSeed, i, s),
                          kBudgetFactor * q.iterations, nullptr)));
      }
      {
        PlanFactory factory(q.query, &model);
        parts.push_back(RunNsga2(&factory, CombineSeed(kReferenceSeed, i, 99)));
      }
      std::vector<CostVector> canonical;
      {
        PlanFactory factory(q.query, &model);
        canonical = CanonicalFrontier(RunRmqSession(
            &factory, kCanonicalSessionSeed, q.iterations, nullptr));
      }
      refs[i].name = q.name;
      refs[i].fingerprint = q.fingerprint;
      refs[i].frontier = UnionFrontier(parts);
      notes[i] = q.name + ": " + std::to_string(refs[i].frontier.size()) +
                 " points; alpha of the benchmark run " +
                 std::to_string(AlphaError(canonical, refs[i].frontier)) +
                 ", of NSGA-II " +
                 std::to_string(AlphaError(parts.back(), refs[i].frontier));
      std::fprintf(stderr, "%s\n", notes[i].c_str());
    }
  };
  std::vector<std::thread> threads;
  for (int j = 0; j < kJobs; ++j) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  std::vector<std::string> comment = {
      "Reference frontiers of the paper-scale pool (perfbench/README.md).",
      "Built by make_references: union of RMQ over " +
          std::to_string(kReferenceSeeds) + " seeds at " +
          std::to_string(kBudgetFactor) +
          "x the benchmark iterations, plus NSGA-II at " +
          std::to_string(kNsgaGenerations) + " generations.",
      "Format: 'query <name> <fingerprint> <metrics> <points>', then one",
      "line of hex-float costs (time buffer disk) per point."};
  for (const std::string& note : notes) comment.push_back(note);
  if (!WriteReferences(out, comment, refs)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu reference frontiers to %s\n", refs.size(),
              out.c_str());
  return 0;
}
