#include "paper_pool.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/frontier_approximation.h"
#include "core/pareto_climb.h"
#include "core/plan_cache.h"
#include "core/query_fingerprint.h"
#include "core/rmq.h"
#include "plan/random_plan.h"
#include "service/batch_optimizer.h"

namespace moqo {
namespace perfbench {
namespace {

/// Master seed of the pool's query generator. Changing it (or the
/// generator) changes every fingerprint, and the benchmark then refuses to
/// run until the references are rebuilt.
constexpr uint64_t kPoolSeed = 2016;

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::vector<PoolQuery> MakePaperPool() {
  const GraphType shapes[] = {GraphType::kChain, GraphType::kStar,
                              GraphType::kCycle};
  const int sizes[] = {30, 50, 100};
  const int iterations[] = {150, 100, 40};
  std::vector<PoolQuery> pool;
  for (int s = 0; s < 3; ++s) {
    for (int k = 0; k < 3; ++k) {
      PoolQuery q;
      q.shape = shapes[s];
      q.tables = sizes[k];
      q.iterations = iterations[k];
      q.name = ToString(q.shape) + "-" + std::to_string(q.tables);
      GeneratorConfig config;
      config.num_tables = q.tables;
      config.graph_type = q.shape;
      Rng rng(CombineSeed(kPoolSeed, static_cast<uint64_t>(s),
                          static_cast<uint64_t>(q.tables)));
      q.query = GenerateQuery(config, &rng);
      q.fingerprint = QueryFingerprint(*q.query);
      pool.push_back(std::move(q));
    }
  }
  return pool;
}

CostModel PaperCostModel() {
  return CostModel({Metric::kTime, Metric::kBuffer, Metric::kDisk});
}

bool ReadReferences(const std::string& path, std::vector<Reference>* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open reference file " + path;
    return false;
  }
  out->clear();
  std::string line;
  int line_no = 0;
  size_t expect_points = 0;
  int metrics = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    fields.imbue(std::locale::classic());
    if (expect_points == 0) {
      std::string tag;
      std::string fp;
      Reference ref;
      fields >> tag >> ref.name >> fp >> metrics >> expect_points;
      if (!fields || tag != "query" || expect_points == 0 || metrics < 1 ||
          metrics > CostVector::kMaxMetrics) {
        *error = path + ":" + std::to_string(line_no) + ": bad query header";
        return false;
      }
      ref.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
      out->push_back(std::move(ref));
      continue;
    }
    CostVector v(metrics);
    for (int m = 0; m < metrics; ++m) {
      std::string token;
      fields >> token;
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (token.empty() || *end != '\0' || !std::isfinite(value) ||
          value <= 0.0) {
        *error = path + ":" + std::to_string(line_no) + ": bad cost value";
        return false;
      }
      v[m] = value;
    }
    out->back().frontier.push_back(v);
    --expect_points;
  }
  if (expect_points != 0) {
    *error = path + ": truncated reference frontier";
    return false;
  }
  return true;
}

bool WriteReferences(const std::string& path,
                     const std::vector<std::string>& comment,
                     const std::vector<Reference>& refs) {
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string& c : comment) out << "# " << c << "\n";
  for (const Reference& ref : refs) {
    const int metrics = ref.frontier.empty() ? 0 : ref.frontier[0].size();
    out << "query " << ref.name << " " << FingerprintString(ref.fingerprint)
        << " " << metrics << " " << ref.frontier.size() << "\n";
    for (const CostVector& v : ref.frontier) {
      for (int m = 0; m < v.size(); ++m) {
        out << (m > 0 ? " " : "") << HexFloat(v[m]);
      }
      out << "\n";
    }
  }
  return static_cast<bool>(out);
}

bool MatchReferences(const std::vector<PoolQuery>& pool,
                     const std::vector<Reference>& refs,
                     std::vector<const Reference*>* matched,
                     std::string* error) {
  matched->clear();
  for (const PoolQuery& q : pool) {
    const Reference* found = nullptr;
    for (const Reference& ref : refs) {
      if (ref.name == q.name) found = &ref;
    }
    if (found == nullptr) {
      *error = "no reference frontier for " + q.name;
      return false;
    }
    if (found->fingerprint != q.fingerprint) {
      *error = "fingerprint mismatch for " + q.name + ": regenerated " +
               FingerprintString(q.fingerprint) + ", reference " +
               FingerprintString(found->fingerprint) +
               " (rebuild the references with make_references)";
      return false;
    }
    matched->push_back(found);
  }
  return true;
}

std::vector<PlanPtr> RunRmqSession(PlanFactory* factory, uint64_t seed,
                                   int iterations,
                                   std::vector<double>* step_ms) {
  RmqConfig config;
  config.max_iterations = iterations;
  RmqSession session(config);
  Rng rng(seed);
  session.Begin(factory, &rng);
  while (!session.Done()) {
    const int64_t start = NowNanos();
    session.Step();
    if (step_ms != nullptr) {
      step_ms->push_back(static_cast<double>(NowNanos() - start) / 1e6);
    }
  }
  return session.Frontier();
}

std::vector<PlanPtr> TracedRmqLoop(PlanFactory* factory, uint64_t seed,
                                   int iterations, Tracer* tracer,
                                   int64_t query_id, RmqLayerTotals* totals) {
  ScopedSpan query_span(tracer, "rmq.query", -1, query_id);
  Rng rng(seed);
  PlanCache cache;
  const TableSet all = factory->query().AllTables();
  for (int i = 1; i <= iterations; ++i) {
    ScopedSpan iteration(tracer, "rmq.iteration", query_span.index(),
                         query_id);
    const int64_t built0 = factory->plans_built();
    const size_t arena0 = factory->arena()->ApproxBytes();
    PlanPtr plan;
    {
      ScopedSpan span(tracer, "plan.random_plan", iteration.index(),
                      query_id);
      plan = RandomPlan(factory, &rng);
    }
    const int64_t built1 = factory->plans_built();
    ClimbStats climb;
    PlanPtr optimum;
    {
      ScopedSpan span(tracer, "core.climb", iteration.index(), query_id);
      optimum = ParetoClimb(plan, factory, &climb);
    }
    const int64_t built2 = factory->plans_built();
    int64_t inserted = 0;
    {
      ScopedSpan span(tracer, "core.approx", iteration.index(), query_id);
      inserted =
          ApproximateFrontiers(optimum, &cache, AlphaForIteration(i), factory);
    }
    const int64_t built3 = factory->plans_built();
    totals->iterations += 1;
    totals->climb_steps += climb.steps;
    totals->climb_plans_examined += climb.plans_examined;
    totals->built_random += built1 - built0;
    totals->built_climb += built2 - built1;
    totals->built_approx += built3 - built2;
    totals->approx_inserted += inserted;
    totals->arena_bytes += static_cast<double>(
        factory->arena()->ApproxBytes() - arena0);
  }
  {
    ScopedSpan span(tracer, "core.checkpoint", query_span.index(), query_id);
    const int64_t start = NowNanos();
    // Measures the size and cost of serializing the cache; never restored.
    CheckpointWriter writer;  // moqo-lint: allow(checkpoint-magic)
    WritePlanCache(&writer, cache);
    totals->checkpoint_bytes += static_cast<double>(writer.Take().size());
    totals->checkpoint_us += static_cast<double>(NowNanos() - start) / 1000.0;
  }
  totals->queries += 1;
  totals->cache_plans += static_cast<double>(cache.TotalPlans());
  totals->cache_table_sets += static_cast<double>(cache.NumTableSets());
  return cache.Lookup(all);
}

double AddRmqLayerMetrics(const Tracer& tracer, const RmqLayerTotals& totals,
                          double untraced_step_ms, double minor_faults,
                          RunResult* out) {
  const std::map<std::string, std::vector<double>> self = tracer.SelfMicros();
  auto sum_of = [&self](const char* name) {
    double sum = 0.0;
    auto it = self.find(name);
    if (it != self.end()) {
      for (double v : it->second) sum += v;
    }
    return sum;
  };
  const double iters = std::max<double>(1.0, totals.iterations);
  const double queries = std::max<double>(1.0, totals.queries);
  const double random_us = sum_of("plan.random_plan");
  const double climb_us = sum_of("core.climb");
  const double approx_us = sum_of("core.approx");
  // Iteration span durations = their self time plus the three phases.
  const double traced_iter_ms =
      (sum_of("rmq.iteration") + random_us + climb_us + approx_us) / 1000.0;
  out->Add("plan.random_plan_us", random_us / iters, "us");
  out->Add("core.climb_us", climb_us / iters, "us");
  out->Add("core.approx_us", approx_us / iters, "us");
  out->Add("core.climb_steps", totals.climb_steps / iters, "count");
  out->Add("core.climb_plans_examined", totals.climb_plans_examined / iters,
           "count");
  out->Add("plan.built_climb", totals.built_climb / iters, "count");
  out->Add("plan.built_approx", totals.built_approx / iters, "count");
  out->Add("core.approx_accept_ratio",
           totals.built_approx > 0
               ? static_cast<double>(totals.approx_inserted) /
                     static_cast<double>(totals.built_approx)
               : 0.0,
           "ratio");
  out->Add("core.approx_built_total", static_cast<double>(totals.built_approx),
           "count");
  out->Add("plan.arena_mb_per_iter", totals.arena_bytes / iters / 1048576.0,
           "MB");
  out->Add("proc.minor_faults_per_iter", minor_faults / iters, "count");
  out->Add("core.cache_plans", totals.cache_plans / queries, "count");
  out->Add("core.cache_table_sets", totals.cache_table_sets / queries,
           "count");
  out->Add("core.checkpoint_kb", totals.checkpoint_bytes / queries / 1024.0,
           "kB");
  out->Add("core.checkpoint_us", totals.checkpoint_us / queries, "us");
  out->Add("trace.iterations", static_cast<double>(totals.iterations),
           "count");
  out->Add("trace.phase_sum_frac",
           untraced_step_ms > 0.0
               ? (random_us + climb_us + approx_us) / 1000.0 / untraced_step_ms
               : 0.0,
           "ratio");
  return traced_iter_ms;
}

bool FinitePositive(const CostVector& cost) {
  for (int m = 0; m < cost.size(); ++m) {
    if (!std::isfinite(cost[m]) || cost[m] <= 0.0) return false;
  }
  return true;
}

bool CheckFrontierPlans(const std::vector<PlanPtr>& plans,
                        PlanFactory* factory, std::string* why) {
  if (plans.empty()) {
    *why = "empty frontier";
    return false;
  }
  const TableSet all = factory->query().AllTables();
  for (const PlanPtr& plan : plans) {
    if (!(plan->rel() == all)) {
      *why = "frontier plan does not join all tables";
      return false;
    }
    const CostVector& cost = plan->cost();
    if (!FinitePositive(cost)) {
      *why = "frontier cost not finite and positive: " + cost.ToString();
      return false;
    }
    const CostVector rebuilt = factory->Rebuild(plan)->cost();
    if (!BitwiseEqual({rebuilt}, {cost})) {
      *why = "Rebuild changed a frontier cost: " + cost.ToString() + " -> " +
             rebuilt.ToString();
      return false;
    }
  }
  return true;
}

std::vector<CostVector> CostsInOrder(const std::vector<PlanPtr>& plans) {
  std::vector<CostVector> costs;
  costs.reserve(plans.size());
  for (const PlanPtr& plan : plans) costs.push_back(plan->cost());
  return costs;
}

}  // namespace perfbench
}  // namespace moqo
