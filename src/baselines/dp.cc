#include "baselines/dp.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "core/checkpoint.h"

namespace moqo {

std::string DpOptimizer::name() const {
  std::ostringstream out;
  out << "DP(";
  if (std::isinf(config_.alpha)) {
    out << "Infinity";
  } else {
    // Print integral alphas without trailing zeros ("DP(2)", "DP(1000)").
    if (config_.alpha == std::floor(config_.alpha)) {
      out << static_cast<long long>(config_.alpha);
    } else {
      out << config_.alpha;
    }
  }
  out << ")";
  return out.str();
}

namespace {

TableSet ToTableSet(uint64_t mask) {
  TableSet s;
  while (mask != 0) {
    int bit = __builtin_ctzll(mask);
    s.Add(bit);
    mask &= mask - 1;
  }
  return s;
}

}  // namespace

void DpSession::OnBegin() {
  num_tables_ = factory()->query().NumTables();
  finished_ = false;
  gave_up_ = false;
  best_.clear();
  cache_.Clear();
  next_mask_ = 1;
  if (num_tables_ > config_.max_tables) {
    // The 2^n subset lattice would exhaust memory long before any realistic
    // deadline; give up immediately (matches the paper: DP produces no
    // result for large queries).
    gave_up_ = true;
    return;
  }

  const int n = num_tables_;
  full_ = (n == 64) ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
  best_.resize(full_ + 1);

  // Base case: single tables. Pruning is identical to the plan cache's
  // (Algorithm 3 Prune).
  for (int t = 0; t < n; ++t) {
    TableSet rel = TableSet::Singleton(t);
    for (ScanAlgorithm op : factory()->ApplicableScans(t)) {
      cache_.Insert(rel, factory()->MakeScan(t, op), config_.alpha);
    }
    best_[uint64_t{1} << t] = cache_.Lookup(rel);
  }
}

std::vector<PlanPtr> DpSession::CurrentFrontier() const {
  if (!finished_) return {};
  return best_[full_];
}

bool DpSession::DoStep(const Deadline& budget) {
  // Subsets already covered by the base case are skipped inline, so every
  // step performs the joins of exactly one subset of size >= 2.
  while (next_mask_ <= full_ && __builtin_popcountll(next_mask_) < 2) {
    ++next_mask_;
  }
  if (next_mask_ > full_) {
    // Single-table queries have no join work at all.
    finished_ = true;
    return true;
  }

  const uint64_t mask = next_mask_;
  TableSet rel = ToTableSet(mask);
  // All ordered splits into (outer, inner): iterate proper sub-masks.
  // Enumerating masks in numeric order guarantees sub-masks come first.
  int64_t joins_since_check = 0;
  // Every split joins the same tables; candidates are costed first and
  // built only if the cache admits them.
  const PlanFactory::SetStats& joined = factory()->StatsFor(rel);
  for (uint64_t outer = (mask - 1) & mask; outer != 0;
       outer = (outer - 1) & mask) {
    uint64_t inner = mask ^ outer;
    const std::vector<PlanPtr>& outer_plans = best_[outer];
    const std::vector<PlanPtr>& inner_plans = best_[inner];
    for (const PlanPtr& o : outer_plans) {
      for (const PlanPtr& i : inner_plans) {
        for (JoinAlgorithm op : AllJoinAlgorithms()) {
          const PlanProps props =
              factory()->JoinProps(o->props(), i->props(), op, joined);
          cache_.Insert(rel, props.cost, props.format, config_.alpha, [&] {
            return factory()->MakeJoin(o, i, op, props);
          });
        }
        if (++joins_since_check >= 4096) {
          joins_since_check = 0;
          if (budget.Expired()) {
            // DP is all-or-nothing: an expired budget aborts the run.
            gave_up_ = true;
            return false;
          }
        }
      }
    }
  }
  best_[mask] = cache_.Lookup(rel);
  ++next_mask_;
  if (mask == full_) {
    finished_ = true;
    return true;
  }
  return false;
}

void DpSession::OnCheckpoint(CheckpointWriter* writer) const {
  writer->WriteU8(finished_ ? 1 : 0);
  writer->WriteU8(gave_up_ ? 1 : 0);
  writer->WriteU64(next_mask_);
  // Only masks populated so far carry plans (base-case singletons plus
  // every completed subset); num_tables_ and full_ are re-derived from the
  // restoring factory's query.
  uint64_t populated = 0;
  for (const std::vector<PlanPtr>& plans : best_) {
    if (!plans.empty()) ++populated;
  }
  writer->WriteU64(populated);
  for (uint64_t mask = 0; mask < best_.size(); ++mask) {
    if (best_[mask].empty()) continue;
    writer->WriteU64(mask);
    writer->WritePlans(best_[mask]);
  }
  WritePlanCache(writer, cache_);
}

bool DpSession::OnRestore(CheckpointReader* reader) {
  num_tables_ = factory()->query().NumTables();
  finished_ = reader->ReadU8() != 0;
  gave_up_ = reader->ReadU8() != 0;
  next_mask_ = reader->ReadU64();
  best_.clear();
  cache_.Clear();
  full_ = 0;
  if (num_tables_ <= config_.max_tables && num_tables_ > 0) {
    const int n = num_tables_;
    full_ = (n == 64) ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
    best_.resize(full_ + 1);
  }
  uint64_t populated = reader->ReadU64();
  for (uint64_t i = 0; i < populated && reader->ok(); ++i) {
    uint64_t mask = reader->ReadU64();
    if (mask >= best_.size()) return false;
    std::vector<PlanPtr> plans = reader->ReadPlans();
    // Every plan filed under a mask must cover exactly that relation set:
    // DoStep joins best_[outer] with best_[inner] relying on disjointness,
    // and MakeJoin's guard is a Debug-only assert.
    if (!AllPlansCover(plans, ToTableSet(mask))) return false;
    best_[mask] = std::move(plans);
  }
  if (!ReadPlanCache(reader, &cache_)) return false;
  // Consistency: a live (non-gave-up) run always has the base-case
  // singleton plans that Begin() filed — and cannot exist at all for an
  // oversized query — while a finished run must have a populated lattice
  // (Frontier() reads best_[full_]). Anything else is a corrupt or
  // mismatched buffer.
  if (!gave_up_) {
    if (num_tables_ > config_.max_tables || best_.empty()) return false;
    for (int t = 0; t < num_tables_; ++t) {
      if (best_[uint64_t{1} << t].empty()) return false;
    }
  }
  if (finished_ && (best_.empty() || best_[full_].empty())) return false;
  return reader->ok();
}

std::vector<PlanPtr> ExactParetoSet(PlanFactory* factory) {
  DpConfig config;
  config.alpha = 1.0;
  config.max_tables = 14;
  DpOptimizer dp(config);
  Rng rng(0);
  return dp.Optimize(factory, &rng, Deadline(), nullptr);
}

}  // namespace moqo
