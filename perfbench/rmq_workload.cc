// rmq_paper_scale: the paper's query sizes, one session at a time.
//
// A run is a sequence of passes over the 9-query pool, each pass in a
// seeded order, until --seconds have elapsed (a started pass always
// completes, so every run steps the same mix of sizes). Pass 0 uses the
// canonical session seed on every query: its frontiers are the ones
// alpha_err is measured on, so alpha_err is identical on every run and
// every benchmark seed. Later passes draw their session seeds from --seed.
#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "harness/experiment.h"
#include "paper_pool.h"
#include "pareto/epsilon_indicator.h"
#include "service/batch_optimizer.h"
#include "workloads.h"

namespace moqo {
namespace perfbench {
namespace {

/// Set-ups per timed batch; one takes about a millisecond.
constexpr int kSetupsPerBatch = 10;
/// Latency limit of one query's session (about 1 s at the seed commit).
constexpr double kQuerySloMillis = 2500.0;

/// The workload's set-up: regenerate the pool, read the references and
/// pair them with the pool by fingerprint.
struct Setup {
  std::vector<PoolQuery> pool;
  std::vector<Reference> refs;
  std::vector<const Reference*> matched;
};

/// Runs kSetupsPerBatch set-ups into `setup` and appends their mean time in
/// seconds to `setup_s`. setup_s is the median of these batch means. The
/// first batch, before the window, sets up the run; one more follows every
/// query. The host's speed drifts over seconds, so batches taken back to
/// back would all sample one moment of it and setup_s would swing by 25%
/// between runs; spread over the window, it drifts like the other timings.
bool TimeSetupBatch(const Options& options, Setup* setup,
                    std::vector<double>* setup_s, std::string* error) {
  const int64_t start = NowNanos();
  for (int rep = 0; rep < kSetupsPerBatch; ++rep) {
    setup->pool = MakePaperPool();
    if (!ReadReferences(options.references, &setup->refs, error) ||
        !MatchReferences(setup->pool, setup->refs, &setup->matched, error)) {
      return false;
    }
  }
  setup_s->push_back(static_cast<double>(NowNanos() - start) / 1e9 /
                     kSetupsPerBatch);
  return true;
}

}  // namespace

int RunRmqPaperScale(const Options& options, RunResult* result,
                     std::string* error) {
  std::vector<double> setup_s;
  Setup setup;
  if (!TimeSetupBatch(options, &setup, &setup_s, error)) return 2;
  const std::vector<PoolQuery>& pool = setup.pool;
  const std::vector<const Reference*>& matched = setup.matched;

  const CostModel model = PaperCostModel();
  Tracer tracer;
  RmqLayerTotals totals;
  std::vector<double> step_ms;
  std::vector<double> query_ms;
  std::vector<double> alpha(pool.size(), 0.0);
  int64_t slo_hits = 0;
  // Page faults are counted around the untraced sessions: the traced
  // rebuild that follows each one reuses the memory the session freed.
  int64_t session_faults = 0;
  const ProcUsage usage_start = ReadProcUsage();
  const int64_t window_start = NowNanos();
  const int64_t window_ns = static_cast<int64_t>(options.seconds) * 1000000000;
  int passes = 0;
  for (int pass = 0; pass == 0 || NowNanos() - window_start < window_ns;
       ++pass) {
    std::vector<size_t> order(pool.size());
    std::iota(order.begin(), order.end(), 0);
    Rng order_rng(CombineSeed(options.seed, static_cast<uint64_t>(pass)));
    std::shuffle(order.begin(), order.end(), order_rng.engine());
    for (size_t qi : order) {
      const PoolQuery& q = pool[qi];
      const uint64_t session_seed =
          pass == 0 ? kCanonicalSessionSeed
                    : CombineSeed(options.seed, static_cast<uint64_t>(pass),
                                  qi);
      ++result->attempted;
      std::vector<CostVector> session_costs;
      bool ok = true;
      {
        // Factory and frontier die at the end of this block, which frees
        // the query's plan arena before the next query starts.
        const int64_t start = NowNanos();
        PlanFactory factory(q.query, &model);
        const int64_t faults0 = ReadProcUsage().minor_faults;
        const std::vector<PlanPtr> frontier =
            RunRmqSession(&factory, session_seed, q.iterations, &step_ms);
        session_faults += ReadProcUsage().minor_faults - faults0;
        const double ms = static_cast<double>(NowNanos() - start) / 1e6;
        query_ms.push_back(ms);
        std::string why;
        if (!CheckFrontierPlans(frontier, &factory, &why)) {
          result->Fail(q.name + " pass " + std::to_string(pass) + ": " + why);
          ok = false;
        }
        session_costs = CostsInOrder(frontier);
        if (pass == 0) {
          alpha[qi] =
              AlphaError(CanonicalFrontier(frontier), matched[qi]->frontier);
        }
        if (ok && ms <= kQuerySloMillis) ++slo_hits;
      }
      if (options.trace) {
        PlanFactory factory(q.query, &model);
        const std::vector<PlanPtr> traced =
            TracedRmqLoop(&factory, session_seed, q.iterations, &tracer,
                          result->attempted - 1, &totals);
        if (!BitwiseEqual(CostsInOrder(traced), session_costs)) {
          result->Fail(q.name + ": traced loop frontier differs from "
                                "RmqSession; the traced run would measure "
                                "another program");
          ok = false;
        }
      }
      if (!ok) ++result->failed;
      Setup scratch;
      if (!TimeSetupBatch(options, &scratch, &setup_s, error)) return 2;
    }
    passes = pass + 1;
  }
  const ProcUsage usage_end = ReadProcUsage();

  double step_sum_ms = 0.0;
  for (double ms : step_ms) step_sum_ms += ms;
  if (options.trace) {
    const double traced_ms = AddRmqLayerMetrics(
        tracer, totals, step_sum_ms, static_cast<double>(session_faults),
        result);
    result->Add("proc.sys_s", usage_end.sys_s - usage_start.sys_s, "s");
    result->Add("trace.overhead_frac",
                step_sum_ms > 0.0 ? traced_ms / step_sum_ms - 1.0 : 0.0,
                "ratio");
    result->Add("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
    if (MakeDirs(options.out_dir)) {
      tracer.WriteJsonLines(options.out_dir + "/rmq_paper_scale-seed" +
                            std::to_string(options.seed) + ".spans.jsonl");
    }
    return 0;
  }
  result->Add("iters_per_s",
              static_cast<double>(step_ms.size()) / (step_sum_ms / 1000.0),
              "1/s");
  result->Add("iter_ms_p50", Percentile(step_ms, 0.50), "ms");
  result->Add("iter_ms_p99", Percentile(step_ms, 0.99), "ms");
  result->Add("alpha_err", GeoMean(alpha), "ratio");
  result->Add("lat_ms_p50", Percentile(query_ms, 0.50), "ms");
  result->Add("lat_ms_p95", Percentile(query_ms, 0.95), "ms");
  result->Add("slo_frac",
              static_cast<double>(slo_hits) /
                  static_cast<double>(std::max<int64_t>(1, result->attempted)),
              "ratio");
  result->Add("peak_rss_mb",
              std::max(usage_end.self_peak_mb, usage_end.children_peak_mb),
              "MB");
  result->Add("setup_s", Median(setup_s), "s");
  std::printf("samples: iterations %zu, queries %zu, passes %d\n",
              step_ms.size(), query_ms.size(), passes);
  return 0;
}

}  // namespace perfbench
}  // namespace moqo
