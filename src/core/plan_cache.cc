#include "core/plan_cache.h"

#include <algorithm>
#include <cassert>

namespace moqo {

PlanCache::Entry* PlanCache::Admit(const TableSet& rel,
                                   const CostVector& cost,
                                   OutputFormat format, double alpha) {
  assert(alpha >= 1.0);
  Entry& entry = cache_[rel];

  const int metrics = cost.size();
  const double* cand = cost.data();
  const std::uint8_t fmt = static_cast<std::uint8_t>(format);
  const size_t n = entry.plans.size();
  assert(entry.costs.rows() == n && entry.formats.size() == n);

  // alpha * cand is the same product for every row; hoist it so the reject
  // test per row is a plain component-wise <=. Bit-identical: IEEE
  // multiplication is deterministic, so row[i] <= alpha * cand[i] here is
  // the exact comparison ApproxDominates evaluated per row. Padding lanes
  // are zeroed (cand's are zero by CostVector's invariant, and alpha * 0
  // is 0) so the per-row loops below can run branch-free over all
  // kMaxMetrics lanes: pads contribute 0 <= 0 to both verdicts.
  double scaled[CostVector::kMaxMetrics];
  for (int i = 0; i < CostVector::kMaxMetrics; ++i) {
    scaled[i] = i < metrics ? alpha * cand[i] : 0.0;
  }

  // Fused one-pass sweep over the former reject pass (same-format row
  // alpha-dominates candidate?) and evict pass (candidate weakly dominates
  // same-format row at factor 1?). Same row order, same comparisons; a
  // reject aborts before any mutation, exactly like the old early return,
  // so outcomes are bit-identical. The keep mask is initialized only when
  // the first eviction appears: most candidates reject or append cleanly,
  // and those paths never touch it.
  bool any_evicted = false;
  for (size_t r = 0; r < n; ++r) {
    if (entry.formats[r] != fmt) continue;
    const double* row = entry.costs.Row(r);
    const bool reject = AllLanesLE(row, scaled);
    const bool evict = AllLanesLE(cand, row);
    if (reject) return nullptr;
    if (evict) {
      if (!any_evicted) keep_.assign(n, 1);
      keep_[r] = 0;
      any_evicted = true;
    }
  }
  if (any_evicted) {
    size_t out = 0;
    for (size_t r = 0; r < n; ++r) {
      if (!keep_[r]) continue;
      entry.plans[out] = std::move(entry.plans[r]);
      entry.formats[out] = entry.formats[r];
      ++out;
    }
    entry.plans.resize(out);
    entry.formats.resize(out);
    entry.costs.Compact(keep_);
  }
  return &entry;
}

const std::vector<PlanPtr>& PlanCache::Lookup(const TableSet& rel) const {
  static const std::vector<PlanPtr> kEmpty;
  auto it = cache_.find(rel);
  return it == cache_.end() ? kEmpty : it->second.plans;
}

size_t PlanCache::TotalPlans() const {
  size_t total = 0;
  for (const auto& [rel, entry] : cache_) total += entry.plans.size();
  return total;
}

void PlanCache::Adopt(const TableSet& rel, std::vector<PlanPtr> plans) {
  Entry& entry = cache_[rel];
  entry.plans = std::move(plans);
  entry.costs.Clear();
  entry.formats.clear();
  for (const PlanPtr& p : entry.plans) {
    entry.costs.PushRow(p->cost());
    entry.formats.push_back(static_cast<std::uint8_t>(p->format()));
  }
}

}  // namespace moqo
