// Multi-metric cost model for scans and joins.
//
// The paper assumes "cost models for all considered cost metrics are
// available" (Section 3) and evaluates with the three metrics of Trummer &
// Koch (SIGMOD'14): execution time, buffer space consumption, and disk
// space consumption. We implement textbook formulas for these plus an
// optional energy metric (Xu et al., PVLDB'12 motivate energy as a query
// optimization objective):
//
//  * time   — page I/Os plus a per-tuple CPU term; operator variants with
//             more buffer run faster (fewer passes / larger blocks);
//  * buffer — pages of working memory held while the plan's pipeline runs;
//             combined additively over operators (worst-case concurrency);
//  * disk   — pages of temporary disk space (sort runs, hash partitions)
//             plus one bookkeeping page per operator, so every component is
//             strictly positive and approximation ratios stay well-defined;
//  * energy — a weighted mix of I/O work, CPU work, and DRAM residency.
//
// All metrics combine child costs additively (cost(plan) = cost(outer) +
// cost(inner) + opCost), which is monotone and therefore satisfies the
// multi-objective principle of optimality (Ganguly et al.) that Algorithm 2
// and the plan cache rely on: improving a sub-plan can never worsen the
// full plan.
#ifndef MOQO_COST_COST_MODEL_H_
#define MOQO_COST_COST_MODEL_H_

#include <string>
#include <vector>

#include "cost/cost_vector.h"
#include "cost/operators.h"
#include "query/catalog.h"

namespace moqo {

/// Cap on estimated intermediate-result cardinalities. Unconstrained bushy
/// plans over 100 tables can produce astronomical cross products; capping
/// keeps all downstream arithmetic finite without reordering any realistic
/// plan comparison.
inline constexpr double kMaxCardinality = 1e140;

/// Pages per buffer / disk unit.
inline constexpr double kPageBytes = 8192.0;

/// Cost metrics supported by the model.
enum class Metric {
  kTime,
  kBuffer,
  kDisk,
  /// Energy consumption (Xu et al., PVLDB'12): a weighted mix of I/O work,
  /// DRAM residency, and spill traffic.
  kEnergy,
  /// Monetary cost in a cloud setting (Kllapi et al., SIGMOD'11): compute
  /// time plus rented memory plus temp-storage fees, each at its own rate.
  kMoney,
};

/// Returns "time", "buffer", "disk", or "energy".
std::string ToString(Metric metric);

/// The full metric pool from which experiments sample (the paper samples
/// l metrics uniformly from {time, buffer, disk} per test case).
const std::vector<Metric>& DefaultMetricPool();

/// Computes per-operator and whole-plan cost vectors for a fixed list of
/// metrics. Stateless apart from the metric list; shared by all algorithms.
class CostModel {
 public:
  /// Builds a model over the given metrics. Throws std::invalid_argument
  /// unless there are 1..CostVector::kMaxMetrics of them.
  explicit CostModel(std::vector<Metric> metrics);

  /// Number of cost metrics l.
  int NumMetrics() const { return static_cast<int>(metrics_.size()); }

  /// The metric list, in component order.
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// True if `op` may scan a table with the given statistics (index scans
  /// require an index).
  bool ScanApplicable(const TableStats& stats, ScanAlgorithm op) const;

  /// Cost vector of scanning a base table with `op`.
  CostVector ScanCost(const TableStats& stats, ScanAlgorithm op) const;

  /// Operator-local cost vector of joining inputs with the given
  /// cardinalities, tuple widths (bytes), and representations; `out_card`
  /// is the estimated join output cardinality.
  CostVector JoinCost(JoinAlgorithm op, double outer_card, double outer_bytes,
                      OutputFormat outer_format, double inner_card,
                      double inner_bytes, OutputFormat inner_format,
                      double out_card) const;

  /// Whole-plan combination: child costs plus operator cost, component-wise.
  CostVector Combine(const CostVector& outer, const CostVector& inner,
                     const CostVector& op) const {
    return (outer + inner + op).Clamped();
  }

  /// Pages occupied by `card` tuples of `bytes` bytes (>= 1).
  static double Pages(double card, double bytes);

 private:
  // Raw per-operator resource consumption, prior to metric projection.
  struct OpResources {
    double time = 0.0;
    double buffer = 0.0;
    double disk = 0.0;
  };

  CostVector Project(const OpResources& r) const;

  std::vector<Metric> metrics_;
};

}  // namespace moqo

#endif  // MOQO_COST_COST_MODEL_H_
