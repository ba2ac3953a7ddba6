#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace moqo {

std::string ToString(Metric metric) {
  switch (metric) {
    case Metric::kTime:
      return "time";
    case Metric::kBuffer:
      return "buffer";
    case Metric::kDisk:
      return "disk";
    case Metric::kEnergy:
      return "energy";
    case Metric::kMoney:
      return "money";
  }
  return "metric?";
}

const std::vector<Metric>& DefaultMetricPool() {
  static const std::vector<Metric> kPool = {Metric::kTime, Metric::kBuffer,
                                            Metric::kDisk};
  return kPool;
}

CostModel::CostModel(std::vector<Metric> metrics)
    : metrics_(std::move(metrics)) {
  // Checked in every build: cost vectors hold at most kMaxMetrics lanes
  // inline, so a longer list would write past them.
  if (metrics_.empty() ||
      static_cast<int>(metrics_.size()) > CostVector::kMaxMetrics) {
    throw std::invalid_argument(
        "CostModel needs 1.." + std::to_string(CostVector::kMaxMetrics) +
        " metrics, got " + std::to_string(metrics_.size()));
  }
}

double CostModel::Pages(double card, double bytes) {
  return std::max(1.0, card * bytes / kPageBytes);
}

bool CostModel::ScanApplicable(const TableStats& stats,
                               ScanAlgorithm op) const {
  switch (op) {
    case ScanAlgorithm::kFullScan:
      return true;
    case ScanAlgorithm::kIndexScan:
      return stats.has_index;
  }
  return false;
}

CostVector CostModel::ScanCost(const TableStats& stats,
                               ScanAlgorithm op) const {
  double pages = Pages(stats.cardinality, stats.tuple_bytes);
  OpResources r;
  switch (op) {
    case ScanAlgorithm::kFullScan:
      // Sequential read with a prefetch window.
      r.time = pages;
      r.buffer = 4.0;
      r.disk = 1.0;
      break;
    case ScanAlgorithm::kIndexScan:
      // Index-order access: dependent page reads are ~2x slower and pay a
      // per-tuple pointer chase, but need only a single buffer page and
      // deliver sorted output (exploited by sort-merge joins upstream).
      r.time = 2.0 * pages + 1e-3 * stats.cardinality;
      r.buffer = 1.0;
      r.disk = 1.0;
      break;
  }
  return Project(r);
}

namespace {

// External-sort resource consumption for `pages` input pages with `buffer`
// pages of working memory: zero-pass if the input fits, otherwise run
// generation plus log_{B-1} merge passes with all runs spilled to disk.
struct SortCost {
  double time = 0.0;
  double spill = 0.0;
};

SortCost ExternalSort(double pages, double buffer) {
  SortCost s;
  if (pages <= buffer) {
    // In-memory sort: CPU only, charged as a fraction of a scan.
    s.time = 0.2 * pages;
    s.spill = 0.0;
    return s;
  }
  double runs = std::ceil(pages / buffer);
  double fan_in = std::max(2.0, buffer - 1.0);
  double passes = std::ceil(std::log(runs) / std::log(fan_in));
  passes = std::max(1.0, passes);
  // Each pass reads and writes the whole input.
  s.time = 2.0 * pages * (1.0 + passes);
  s.spill = 2.0 * pages;
  return s;
}

}  // namespace

CostVector CostModel::JoinCost(JoinAlgorithm op, double outer_card,
                               double outer_bytes, OutputFormat outer_format,
                               double inner_card, double inner_bytes,
                               OutputFormat inner_format,
                               double out_card) const {
  double pl = Pages(outer_card, outer_bytes);
  double pr = Pages(inner_card, inner_bytes);
  double buffer = BufferPages(op);
  // Per-tuple CPU work: probing/merging both inputs and emitting output.
  double cpu = 1e-3 * (outer_card + inner_card) + 5e-4 * out_card;
  cpu = std::min(cpu, kMaxCost);

  OpResources r;
  r.buffer = buffer;
  r.disk = 1.0;  // bookkeeping page; keeps every metric strictly positive

  switch (op) {
    case JoinAlgorithm::kNestedLoop:
      // One inner pass per outer page.
      r.time = pl + pl * pr + cpu;
      break;
    case JoinAlgorithm::kBlockNestedLoopSmall:
    case JoinAlgorithm::kBlockNestedLoopLarge: {
      double block = std::max(1.0, buffer - 2.0);
      r.time = pl + std::ceil(pl / block) * pr + cpu;
      break;
    }
    case JoinAlgorithm::kHashSmall:
    case JoinAlgorithm::kHashMedium:
    case JoinAlgorithm::kHashLarge:
      if (pl <= buffer) {
        // Build side fits in memory: one pass over each input.
        r.time = pl + pr + cpu;
      } else {
        // Grace hash: partition both inputs to disk, then join partitions.
        r.time = 3.0 * (pl + pr) + cpu;
        r.disk += 2.0 * (pl + pr);
      }
      break;
    case JoinAlgorithm::kSortMergeSmall:
    case JoinAlgorithm::kSortMergeLarge: {
      SortCost sl{0.0, 0.0};
      SortCost sr{0.0, 0.0};
      if (outer_format != OutputFormat::kSorted) {
        sl = ExternalSort(pl, buffer);
      }
      if (inner_format != OutputFormat::kSorted) {
        sr = ExternalSort(pr, buffer);
      }
      r.time = sl.time + sr.time + pl + pr + cpu;
      r.disk += sl.spill + sr.spill;
      break;
    }
  }
  return Project(r);
}

CostVector CostModel::Project(const OpResources& r) const {
  CostVector out(NumMetrics());
  for (int i = 0; i < NumMetrics(); ++i) {
    switch (metrics_[static_cast<size_t>(i)]) {
      case Metric::kTime:
        out[i] = std::max(1.0, r.time);
        break;
      case Metric::kBuffer:
        out[i] = std::max(1.0, r.buffer);
        break;
      case Metric::kDisk:
        out[i] = std::max(1.0, r.disk);
        break;
      case Metric::kEnergy:
        // I/O energy dominates; DRAM residency and spills contribute with
        // their own coefficients so energy is correlated with — but not
        // proportional to — time.
        out[i] = std::max(1.0, 0.3 * r.time + 0.002 * r.buffer +
                                   0.15 * r.disk);
        break;
      case Metric::kMoney:
        // Cloud pricing: compute time at one rate, rented working memory
        // at a steep rate (memory-optimized instances), temp storage
        // cheaply. The heavy buffer coefficient creates money-vs-time
        // tradeoffs across operator variants.
        out[i] = std::max(1.0, 0.05 * r.time + 0.5 * r.buffer +
                                   0.01 * r.disk);
        break;
    }
  }
  return out.Clamped();
}

}  // namespace moqo
