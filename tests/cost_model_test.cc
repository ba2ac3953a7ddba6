#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "cost/operators.h"

namespace moqo {
namespace {

CostModel ThreeMetricModel() {
  return CostModel({Metric::kTime, Metric::kBuffer, Metric::kDisk});
}

TEST(OperatorsTest, EnumerationsComplete) {
  EXPECT_EQ(AllJoinAlgorithms().size(),
            static_cast<size_t>(kNumJoinAlgorithms));
  EXPECT_EQ(AllScanAlgorithms().size(),
            static_cast<size_t>(kNumScanAlgorithms));
}

TEST(OperatorsTest, SortBasedOperatorsEmitSortedOutput) {
  EXPECT_EQ(FormatOf(JoinAlgorithm::kSortMergeSmall), OutputFormat::kSorted);
  EXPECT_EQ(FormatOf(JoinAlgorithm::kSortMergeLarge), OutputFormat::kSorted);
  EXPECT_EQ(FormatOf(ScanAlgorithm::kIndexScan), OutputFormat::kSorted);
  EXPECT_EQ(FormatOf(JoinAlgorithm::kHashLarge), OutputFormat::kUnsorted);
  EXPECT_EQ(FormatOf(ScanAlgorithm::kFullScan), OutputFormat::kUnsorted);
}

TEST(OperatorsTest, BufferBudgetsOrdered) {
  EXPECT_LT(BufferPages(JoinAlgorithm::kNestedLoop),
            BufferPages(JoinAlgorithm::kBlockNestedLoopSmall));
  EXPECT_LT(BufferPages(JoinAlgorithm::kBlockNestedLoopSmall),
            BufferPages(JoinAlgorithm::kBlockNestedLoopLarge));
  EXPECT_LT(BufferPages(JoinAlgorithm::kHashSmall),
            BufferPages(JoinAlgorithm::kHashMedium));
  EXPECT_LT(BufferPages(JoinAlgorithm::kHashMedium),
            BufferPages(JoinAlgorithm::kHashLarge));
  EXPECT_LT(BufferPages(JoinAlgorithm::kSortMergeSmall),
            BufferPages(JoinAlgorithm::kSortMergeLarge));
}

TEST(OperatorsTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (JoinAlgorithm op : AllJoinAlgorithms()) names.insert(ToString(op));
  EXPECT_EQ(names.size(), AllJoinAlgorithms().size());
}

TEST(CostModelTest, MetricProjectionOrder) {
  CostModel m({Metric::kBuffer, Metric::kTime});
  TableStats t{10000.0, 100.0, false};
  CostVector c = m.ScanCost(t, ScanAlgorithm::kFullScan);
  ASSERT_EQ(c.size(), 2);
  // Component 0 is buffer (4 pages for a full scan), component 1 is time.
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_GT(c[1], 4.0);
}

TEST(CostModelTest, ScanApplicability) {
  CostModel m = ThreeMetricModel();
  TableStats indexed{1000.0, 50.0, true};
  TableStats plain{1000.0, 50.0, false};
  EXPECT_TRUE(m.ScanApplicable(indexed, ScanAlgorithm::kFullScan));
  EXPECT_TRUE(m.ScanApplicable(indexed, ScanAlgorithm::kIndexScan));
  EXPECT_TRUE(m.ScanApplicable(plain, ScanAlgorithm::kFullScan));
  EXPECT_FALSE(m.ScanApplicable(plain, ScanAlgorithm::kIndexScan));
}

TEST(CostModelTest, IndexScanTradesTimeForBuffer) {
  CostModel m = ThreeMetricModel();
  TableStats t{50000.0, 100.0, true};
  CostVector full = m.ScanCost(t, ScanAlgorithm::kFullScan);
  CostVector index = m.ScanCost(t, ScanAlgorithm::kIndexScan);
  EXPECT_LT(full[0], index[0]);   // full scan is faster
  EXPECT_GT(full[1], index[1]);   // but uses more buffer
}

TEST(CostModelTest, AllCostsStrictlyPositive) {
  CostModel m = ThreeMetricModel();
  TableStats tiny{1.0, 8.0, true};
  for (ScanAlgorithm op : AllScanAlgorithms()) {
    CostVector c = m.ScanCost(tiny, op);
    for (int i = 0; i < c.size(); ++i) EXPECT_GE(c[i], 1.0);
  }
  for (JoinAlgorithm op : AllJoinAlgorithms()) {
    CostVector c = m.JoinCost(op, 1.0, 8.0, OutputFormat::kUnsorted, 1.0, 8.0,
                              OutputFormat::kUnsorted, 1.0);
    for (int i = 0; i < c.size(); ++i) EXPECT_GE(c[i], 1.0) << ToString(op);
  }
}

TEST(CostModelTest, Pages) {
  EXPECT_DOUBLE_EQ(CostModel::Pages(0.0, 100.0), 1.0);  // at least one page
  EXPECT_DOUBLE_EQ(CostModel::Pages(8192.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(CostModel::Pages(8192.0, 2.0), 2.0);
}

TEST(CostModelTest, HashJoinInMemoryVsGrace) {
  CostModel m = ThreeMetricModel();
  // Small build side: fits the small budget -> one pass, no spill.
  CostVector fits = m.JoinCost(JoinAlgorithm::kHashSmall, 1000.0, 100.0,
                               OutputFormat::kUnsorted, 1000.0, 100.0,
                               OutputFormat::kUnsorted, 1000.0);
  // Large build side: grace hash with partitioning I/O and spill.
  CostVector spills = m.JoinCost(JoinAlgorithm::kHashSmall, 1e6, 100.0,
                                 OutputFormat::kUnsorted, 1e6, 100.0,
                                 OutputFormat::kUnsorted, 1e6);
  EXPECT_GT(spills[0], fits[0]);  // more time
  EXPECT_GT(spills[2], fits[2]);  // spills to disk
  EXPECT_DOUBLE_EQ(fits[2], 1.0);  // only the bookkeeping page

  // A larger memory budget avoids the spill entirely.
  CostVector big_mem = m.JoinCost(JoinAlgorithm::kHashLarge, 1e6, 100.0,
                                  OutputFormat::kUnsorted, 1e6, 100.0,
                                  OutputFormat::kUnsorted, 1e6);
  EXPECT_LT(big_mem[0], spills[0]);
  EXPECT_DOUBLE_EQ(big_mem[2], 1.0);
  EXPECT_GT(big_mem[1], spills[1]);  // at the price of more buffer
}

TEST(CostModelTest, SortMergeSkipsSortForSortedInputs) {
  CostModel m = ThreeMetricModel();
  double card = 1e6;
  CostVector unsorted = m.JoinCost(JoinAlgorithm::kSortMergeSmall, card,
                                   100.0, OutputFormat::kUnsorted, card,
                                   100.0, OutputFormat::kUnsorted, card);
  CostVector sorted = m.JoinCost(JoinAlgorithm::kSortMergeSmall, card, 100.0,
                                 OutputFormat::kSorted, card, 100.0,
                                 OutputFormat::kSorted, card);
  EXPECT_LT(sorted[0], unsorted[0]);      // no sort phases
  EXPECT_LT(sorted[2], unsorted[2]);      // no sort spill
  EXPECT_DOUBLE_EQ(sorted[2], 1.0);
}

TEST(CostModelTest, BlockNestedLoopBenefitsFromLargerBlocks) {
  CostModel m = ThreeMetricModel();
  double card = 1e6;
  CostVector small = m.JoinCost(JoinAlgorithm::kBlockNestedLoopSmall, card,
                                100.0, OutputFormat::kUnsorted, card, 100.0,
                                OutputFormat::kUnsorted, card);
  CostVector large = m.JoinCost(JoinAlgorithm::kBlockNestedLoopLarge, card,
                                100.0, OutputFormat::kUnsorted, card, 100.0,
                                OutputFormat::kUnsorted, card);
  EXPECT_LT(large[0], small[0]);
  EXPECT_GT(large[1], small[1]);
}

TEST(CostModelTest, NestedLoopQuadraticInPages) {
  CostModel m({Metric::kTime});
  double card = 1e5;
  CostVector nl = m.JoinCost(JoinAlgorithm::kNestedLoop, card, 100.0,
                             OutputFormat::kUnsorted, card, 100.0,
                             OutputFormat::kUnsorted, card);
  CostVector hash = m.JoinCost(JoinAlgorithm::kHashLarge, card, 100.0,
                               OutputFormat::kUnsorted, card, 100.0,
                               OutputFormat::kUnsorted, card);
  EXPECT_GT(nl[0], 100.0 * hash[0]);
}

TEST(CostModelTest, EnergyMetricSupported) {
  CostModel m({Metric::kTime, Metric::kEnergy});
  TableStats t{10000.0, 100.0, false};
  CostVector c = m.ScanCost(t, ScanAlgorithm::kFullScan);
  EXPECT_GT(c[1], 0.0);
  EXPECT_NE(c[0], c[1]);  // energy is not simply time
}

// The metric count is a public input checked in Release builds too: the
// Metric enum offers five metrics but a cost vector holds at most
// kMaxMetrics lanes, and an oversized model used to write past them.
TEST(CostModelTest, RejectsEmptyOrTooManyMetrics) {
  EXPECT_THROW(CostModel({}), std::invalid_argument);
  const std::vector<Metric> all_five = {Metric::kTime, Metric::kBuffer,
                                        Metric::kDisk, Metric::kEnergy,
                                        Metric::kMoney};
  ASSERT_GT(static_cast<int>(all_five.size()), CostVector::kMaxMetrics);
  EXPECT_THROW(CostModel{all_five}, std::invalid_argument);

  const std::vector<Metric> widest(all_five.begin(),
                                   all_five.begin() + CostVector::kMaxMetrics);
  CostModel m(widest);
  EXPECT_EQ(m.NumMetrics(), CostVector::kMaxMetrics);
  TableStats t{10000.0, 100.0, false};
  EXPECT_EQ(m.ScanCost(t, ScanAlgorithm::kFullScan).size(),
            CostVector::kMaxMetrics);
}

TEST(CostModelTest, CombineIsComponentwiseSum) {
  CostModel m({Metric::kTime, Metric::kBuffer});
  CostVector a = {1.0, 2.0};
  CostVector b = {10.0, 20.0};
  CostVector op = {100.0, 200.0};
  CostVector combined = m.Combine(a, b, op);
  EXPECT_DOUBLE_EQ(combined[0], 111.0);
  EXPECT_DOUBLE_EQ(combined[1], 222.0);
}

TEST(CostModelTest, DefaultMetricPoolIsPaperTriple) {
  const std::vector<Metric>& pool = DefaultMetricPool();
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0], Metric::kTime);
  EXPECT_EQ(pool[1], Metric::kBuffer);
  EXPECT_EQ(pool[2], Metric::kDisk);
}

TEST(CostModelTest, MetricNames) {
  EXPECT_EQ(ToString(Metric::kTime), "time");
  EXPECT_EQ(ToString(Metric::kBuffer), "buffer");
  EXPECT_EQ(ToString(Metric::kDisk), "disk");
  EXPECT_EQ(ToString(Metric::kEnergy), "energy");
}

// Monotonicity property: all operator costs are nondecreasing in input
// cardinality — required by the principle-of-optimality argument.
class JoinMonotonicityTest
    : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(JoinMonotonicityTest, CostNondecreasingInInputs) {
  JoinAlgorithm op = GetParam();
  CostModel m = ThreeMetricModel();
  double prev_time = 0.0;
  for (double card : {10.0, 1e3, 1e5, 1e7, 1e9}) {
    CostVector c = m.JoinCost(op, card, 100.0, OutputFormat::kUnsorted,
                              card, 100.0, OutputFormat::kUnsorted, card);
    EXPECT_GE(c[0], prev_time) << ToString(op) << " at card " << card;
    prev_time = c[0];
  }
}

INSTANTIATE_TEST_SUITE_P(AllJoinOps, JoinMonotonicityTest,
                         ::testing::ValuesIn(AllJoinAlgorithms()),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           std::string out;
                           for (char c : n) {
                             if (isalnum(static_cast<unsigned char>(c))) {
                               out += c;
                             }
                           }
                           return out;
                         });

}  // namespace
}  // namespace moqo
