#include "partition/partitioner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/dataset.h"
#include "engine/execution_context.h"
#include "instances/instances.h"
#include "partition/balance.h"
#include "partition/baseline_partitioners.h"
#include "partition/hash_partitioner.h"
#include "partition/quadtree_partitioner.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "partition/tbalance_partitioner.h"

namespace st4ml {
namespace {

std::vector<STBox> ClusteredBoxes(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<STBox> boxes;
  boxes.reserve(n);
  for (int i = 0; i < n; ++i) {
    double cx = rng.Bernoulli(0.5) ? 20.0 : 80.0;
    double x = rng.Gaussian(cx, 8.0), y = rng.Gaussian(50.0, 20.0);
    int64_t t = rng.UniformInt(0, 100000);
    boxes.push_back(STBox(Mbr(x, y, x + 0.5, y + 0.5), Duration(t, t + 60)));
  }
  return boxes;
}

std::vector<std::unique_ptr<STPartitioner>> AllPartitioners() {
  std::vector<std::unique_ptr<STPartitioner>> out;
  out.push_back(std::make_unique<HashPartitioner>(16));
  out.push_back(std::make_unique<STRPartitioner>(16));
  out.push_back(std::make_unique<TSTRPartitioner>(4, 4));
  out.push_back(std::make_unique<QuadTreePartitioner>(16));
  out.push_back(std::make_unique<TBalancePartitioner>(16));
  out.push_back(std::make_unique<KDBPartitioner>(16));
  out.push_back(std::make_unique<GridPartitioner>(16));
  return out;
}

TEST(PartitionerTest, PrimaryAssignmentIsSingleAndInRange) {
  auto boxes = ClusteredBoxes(2000, 5);
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    EXPECT_GT(p->num_partitions(), 0);
    for (size_t i = 0; i < boxes.size(); ++i) {
      std::vector<int> assigned =
          p->Assign(boxes[i], /*duplicate=*/false, static_cast<uint64_t>(i));
      ASSERT_EQ(assigned.size(), 1u);
      EXPECT_GE(assigned[0], 0);
      EXPECT_LT(assigned[0], p->num_partitions());
    }
  }
}

TEST(PartitionerTest, DuplicateAssignmentIncludesPrimary) {
  auto boxes = ClusteredBoxes(500, 6);
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    for (size_t i = 0; i < boxes.size(); ++i) {
      int primary =
          p->Assign(boxes[i], false, static_cast<uint64_t>(i))[0];
      std::vector<int> all =
          p->Assign(boxes[i], true, static_cast<uint64_t>(i));
      EXPECT_FALSE(all.empty());
      EXPECT_NE(std::find(all.begin(), all.end(), primary), all.end())
          << "duplicate assignment must contain the primary partition";
      for (int q : all) {
        EXPECT_GE(q, 0);
        EXPECT_LT(q, p->num_partitions());
      }
    }
  }
}

TEST(PartitionerTest, OutOfExtentRecordsStillLand) {
  auto boxes = ClusteredBoxes(300, 7);
  STBox far(Mbr(1e6, 1e6, 1e6 + 1, 1e6 + 1), Duration(1 << 30, (1 << 30) + 1));
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    auto assigned = p->Assign(far, false, 999);
    ASSERT_EQ(assigned.size(), 1u);
    EXPECT_LT(assigned[0], p->num_partitions());
  }
}

TEST(PartitionerTest, StrBeatsHashOnSpatialLocality) {
  auto boxes = ClusteredBoxes(3000, 8);
  STRPartitioner str(16);
  HashPartitioner hash(16);
  str.Train(boxes);
  hash.Train(boxes);
  auto bounds_of = [&](const STPartitioner& p) {
    std::vector<int> assignment;
    assignment.reserve(boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      assignment.push_back(p.Assign(boxes[i], false, i)[0]);
    }
    return PartitionContentBounds(boxes, assignment, p.num_partitions());
  };
  double str_overlap = OverlapRatio(bounds_of(str));
  double hash_overlap = OverlapRatio(bounds_of(hash));
  EXPECT_LT(str_overlap, hash_overlap);
}

TEST(PartitionerTest, TstrSlicesTimeFirst) {
  // Two well-separated temporal clusters: T-STR must never mix them in one
  // partition when trained with two temporal slices.
  std::vector<STBox> boxes;
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    int64_t t = (i % 2 == 0) ? rng.UniformInt(0, 100)
                             : rng.UniformInt(1000000, 1000100);
    double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    boxes.push_back(STBox(Mbr(x, y, x, y), Duration(t, t)));
  }
  TSTRPartitioner tstr(2, 4);
  tstr.Train(boxes);
  std::vector<Duration> spans(static_cast<size_t>(tstr.num_partitions()),
                              Duration(int64_t{1} << 60, int64_t{1} << 60));
  std::vector<bool> seen(static_cast<size_t>(tstr.num_partitions()), false);
  for (size_t i = 0; i < boxes.size(); ++i) {
    int part = tstr.Assign(boxes[i], false, i)[0];
    if (!seen[part]) {
      spans[part] = boxes[i].time;
      seen[part] = true;
    } else {
      spans[part].Extend(boxes[i].time);
    }
  }
  for (size_t q = 0; q < spans.size(); ++q) {
    if (seen[q]) {
      EXPECT_LT(spans[q].Seconds(), 500000) << "partition " << q;
    }
  }
}

TEST(BalanceTest, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({5, 5, 5, 5}), 0.0);
  EXPECT_GT(CoefficientOfVariation({1, 9, 1, 9}), 0.5);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({}), 0.0);
}

TEST(STPartitionTest, RedistributesRecordsAndTrains) {
  auto ctx = ExecutionContext::Create(2);
  std::vector<STEvent> events;
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    STEvent e;
    e.spatial = Point(rng.Uniform(0, 100), rng.Uniform(0, 100));
    e.temporal = Duration(rng.UniformInt(0, 1000));
    e.data.id = i;
    events.push_back(e);
  }
  auto data = Dataset<STEvent>::Parallelize(ctx, events, 4);
  TSTRPartitioner tstr(2, 2);
  auto partitioned = TrySTPartition(
      data, &tstr, [](const STEvent& e) { return e.ComputeSTBox(); },
      [](const STEvent& e) { return static_cast<uint64_t>(e.data.id); });
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  EXPECT_EQ(partitioned->num_partitions(),
            static_cast<size_t>(tstr.num_partitions()));
  EXPECT_EQ(partitioned->Count(), events.size());
}

}  // namespace
}  // namespace st4ml
