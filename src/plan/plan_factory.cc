#include "plan/plan_factory.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace moqo {

PlanFactory::PlanFactory(QueryPtr query, const CostModel* cost_model)
    : query_(std::move(query)),
      cost_model_(cost_model),
      arena_(PlanArena::Create()) {
  assert(query_ != nullptr);
  assert(cost_model_ != nullptr);
}

void PlanFactory::ResetArena() { arena_ = PlanArena::Create(); }

const PlanFactory::SetStats& PlanFactory::StatsFor(const TableSet& s) {
  auto it = set_stats_.find(s);
  if (it != set_stats_.end()) return it->second;

  SetStats stats{1.0, 0.0};
  s.ForEach([&](int t) {
    stats.cardinality *= query_->catalog().Cardinality(t);
    stats.cardinality = std::min(stats.cardinality, kMaxCardinality);
    stats.tuple_bytes += query_->catalog().Table(t).tuple_bytes;
  });
  stats.cardinality *= query_->graph().SelectivityWithin(s);
  stats.cardinality = std::clamp(stats.cardinality, 1.0, kMaxCardinality);
  return set_stats_.emplace(s, stats).first->second;
}

double PlanFactory::Cardinality(const TableSet& s) {
  return StatsFor(s).cardinality;
}

double PlanFactory::TupleBytes(const TableSet& s) {
  return StatsFor(s).tuple_bytes;
}

bool PlanFactory::ScanApplicable(int table, ScanAlgorithm op) const {
  return cost_model_->ScanApplicable(query_->catalog().Table(table), op);
}

std::vector<ScanAlgorithm> PlanFactory::ApplicableScans(int table) const {
  std::vector<ScanAlgorithm> ops;
  for (ScanAlgorithm op : AllScanAlgorithms()) {
    if (ScanApplicable(table, op)) ops.push_back(op);
  }
  return ops;
}

PlanProps PlanFactory::ScanProps(int table, ScanAlgorithm op) {
  assert(table >= 0 && table < query_->NumTables());
  const TableStats& stats = query_->catalog().Table(table);
  assert(cost_model_->ScanApplicable(stats, op));

  PlanProps props;
  props.rel = TableSet::Singleton(table);
  props.cost = cost_model_->ScanCost(stats, op);
  props.cardinality = stats.cardinality;
  props.tuple_bytes = stats.tuple_bytes;
  props.format = FormatOf(op);
  props.node_count = 1;
  ++plans_costed_;
  return props;
}

PlanProps PlanFactory::JoinProps(const PlanProps& outer,
                                 const PlanProps& inner, JoinAlgorithm op) {
  return JoinProps(outer, inner, op, StatsFor(outer.rel.Union(inner.rel)));
}

PlanProps PlanFactory::JoinProps(const PlanProps& outer,
                                 const PlanProps& inner, JoinAlgorithm op,
                                 const SetStats& joined) {
  assert(!outer.rel.Empty() && !inner.rel.Empty());
  assert(outer.rel.DisjointWith(inner.rel));
  assert(joined.cardinality ==
         StatsFor(outer.rel.Union(inner.rel)).cardinality);

  PlanProps props;
  props.rel = outer.rel.Union(inner.rel);
  const CostVector op_cost = cost_model_->JoinCost(
      op, outer.cardinality, outer.tuple_bytes, outer.format,
      inner.cardinality, inner.tuple_bytes, inner.format,
      joined.cardinality);
  props.cost = cost_model_->Combine(outer.cost, inner.cost, op_cost);
  props.cardinality = joined.cardinality;
  props.tuple_bytes = joined.tuple_bytes;
  props.format = FormatOf(op);
  props.node_count = outer.node_count + inner.node_count + 1;
  ++plans_costed_;
  return props;
}

PlanPtr PlanFactory::MakeScan(int table, ScanAlgorithm op) {
  return MakeScan(table, op, ScanProps(table, op));
}

PlanPtr PlanFactory::MakeScan(int table, ScanAlgorithm op,
                              const PlanProps& props) {
  assert(props.rel == TableSet::Singleton(table));
  assert(props.format == FormatOf(op));

  Plan* plan = arena_->Allocate();
  plan->props_ = props;
  plan->table_ = table;
  plan->scan_op_ = op;
  ++plans_built_;
  return PlanPtr(arena_, plan);
}

PlanPtr PlanFactory::MakeJoin(const PlanPtr& outer, const PlanPtr& inner,
                              JoinAlgorithm op) {
  assert(outer != nullptr && inner != nullptr);
  return MakeJoin(outer, inner, op,
                  JoinProps(outer->props(), inner->props(), op));
}

PlanPtr PlanFactory::MakeJoin(const PlanPtr& outer, const PlanPtr& inner,
                              JoinAlgorithm op, const PlanProps& props) {
  assert(outer != nullptr && inner != nullptr);
  assert(props.rel == outer->rel().Union(inner->rel()));
  assert(props.format == FormatOf(op));
  assert(props.node_count == outer->NodeCount() + inner->NodeCount() + 1);

  Plan* plan = arena_->Allocate();
  plan->props_ = props;
  plan->join_op_ = op;
  // Children are linked as raw pointers; the parent's owning handle keeps
  // the (shared) arena — and with it both children — alive. Children built
  // by this factory live in arena_ or, after ResetArena, in an arena kept
  // alive by the caller's own handles; either way the link cannot dangle
  // while the returned handle is reachable.
  plan->outer_ = outer.get();
  plan->inner_ = inner.get();
  ++plans_built_;
  return PlanPtr(arena_, plan);
}

PlanPtr PlanFactory::Rebuild(const PlanPtr& plan) {
  if (!plan->IsJoin()) return MakeScan(plan->table(), plan->scan_op());
  return MakeJoin(Rebuild(plan->outer()), Rebuild(plan->inner()),
                  plan->join_op());
}

}  // namespace moqo
