#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
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

// --- STR / T-STR training: balanced, and equal to a full sort. ---

/// Boxes with pairwise-distinct x, y and time centers (shuffled ranks).
std::vector<STBox> DistinctCenterBoxes(int n, uint64_t seed) {
  Rng rng(seed);
  auto shuffled_ranks = [&]() {
    std::vector<int64_t> ranks(static_cast<size_t>(n));
    std::iota(ranks.begin(), ranks.end(), 0);
    for (size_t i = ranks.size(); i > 1; --i) {
      std::swap(ranks[i - 1], ranks[rng.UniformInt(0, i - 1)]);
    }
    return ranks;
  };
  std::vector<int64_t> xs = shuffled_ranks();
  std::vector<int64_t> ys = shuffled_ranks();
  std::vector<int64_t> ts = shuffled_ranks();
  std::vector<STBox> boxes;
  for (size_t i = 0; i < xs.size(); ++i) {
    double x = static_cast<double>(xs[i]), y = static_cast<double>(ys[i]);
    boxes.push_back(STBox(Mbr(x - 0.25, y - 0.25, x + 0.25, y + 0.25),
                          Duration(2 * ts[i], 2 * ts[i] + 2)));
  }
  return boxes;
}

std::vector<size_t> PrimaryCounts(const STPartitioner& p,
                                  const std::vector<STBox>& boxes) {
  std::vector<size_t> counts(static_cast<size_t>(p.num_partitions()), 0);
  for (size_t i = 0; i < boxes.size(); ++i) {
    counts[static_cast<size_t>(p.Assign(boxes[i], false, i)[0])] += 1;
  }
  return counts;
}

TEST(PartitionerTest, StrFamilyTrainsEqualCountPartitions) {
  auto boxes = DistinctCenterBoxes(10007, 21);
  std::vector<std::unique_ptr<STPartitioner>> partitioners;
  partitioners.push_back(std::make_unique<STRPartitioner>(16));
  partitioners.push_back(std::make_unique<TSTRPartitioner>(4, 4));
  partitioners.push_back(std::make_unique<TSTRPartitioner>(2, 4));
  for (auto& p : partitioners) {
    p->Train(boxes);
    std::vector<size_t> counts = PrimaryCounts(*p, boxes);
    auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*hi - *lo, 1u) << "min " << *lo << " max " << *hi << " over "
                             << counts.size() << " partitions";
  }
}

// The reference layouts: one full std::sort per level, under the total
// orders training promises — (time center, input index) for slices, (x, y)
// center for slabs, y for tiles.

double RefCenterX(const STBox& b) { return (b.mbr.x_min + b.mbr.x_max) / 2.0; }
double RefCenterY(const STBox& b) { return (b.mbr.y_min + b.mbr.y_max) / 2.0; }
int64_t RefCenterT(const STBox& b) {
  return b.time.start() / 2 + b.time.end() / 2;
}

template <typename V>
std::vector<V> RefCuts(const std::vector<V>& sorted, int count) {
  std::vector<V> cuts;
  if (sorted.empty()) return cuts;
  for (int k = 1; k < count; ++k) {
    cuts.push_back(sorted[sorted.size() * static_cast<size_t>(k) / count]);
  }
  return cuts;
}

partition_internal::StrTiling RefTiling(
    std::vector<std::pair<double, double>> centers, int gx, int gy) {
  std::sort(centers.begin(), centers.end());
  partition_internal::StrTiling tiling;
  tiling.gx = gx;
  tiling.gy = gy;
  std::vector<double> xs;
  for (const auto& c : centers) xs.push_back(c.first);
  tiling.x_splits = RefCuts(xs, gx);
  tiling.y_splits.resize(gx);
  for (int slab = 0; slab < gx; ++slab) {
    size_t lo = centers.size() * static_cast<size_t>(slab) / gx;
    size_t hi = centers.size() * static_cast<size_t>(slab + 1) / gx;
    std::vector<double> ys;
    for (size_t i = lo; i < hi; ++i) ys.push_back(centers[i].second);
    std::sort(ys.begin(), ys.end());
    tiling.y_splits[slab] = RefCuts(ys, gy);
  }
  return tiling;
}

void ExpectSameTiling(const partition_internal::StrTiling& got,
                      const partition_internal::StrTiling& want) {
  EXPECT_EQ(got.gx, want.gx);
  EXPECT_EQ(got.gy, want.gy);
  EXPECT_EQ(got.x_splits, want.x_splits);
  EXPECT_EQ(got.y_splits, want.y_splits);
}

/// Clustered boxes whose time centers are integer seconds from a narrow
/// range (many ties) and whose x centers sit on a coarse lattice (ties
/// broken by y).
std::vector<STBox> TiedCenterBoxes(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<STBox> boxes;
  for (int i = 0; i < n; ++i) {
    double x = std::round(rng.Gaussian(50.0, 15.0) * 2.0) / 2.0;
    double y = rng.Uniform(0, 100);
    int64_t t = rng.UniformInt(0, 40);
    boxes.push_back(STBox(Mbr(x, y, x, y), Duration(t, t + 2 * (i % 3))));
  }
  return boxes;
}

TEST(PartitionerTest, StrTrainingEqualsFullSort) {
  for (uint64_t seed : {31, 32}) {
    for (const auto& boxes :
         {TiedCenterBoxes(3001, seed), ClusteredBoxes(2500, seed)}) {
      STRPartitioner str(16);
      str.Train(boxes);
      std::vector<std::pair<double, double>> centers;
      for (const STBox& b : boxes) {
        centers.emplace_back(RefCenterX(b), RefCenterY(b));
      }
      ExpectSameTiling(str.tiling(), RefTiling(centers, 4, 4));
    }
  }
}

TEST(PartitionerTest, TstrTrainingEqualsFullSort) {
  const std::pair<int, int> shapes[] = {{4, 4}, {2, 4}, {6, 8}, {5, 3}};
  for (uint64_t seed : {41, 42}) {
    for (const auto& boxes :
         {TiedCenterBoxes(3001, seed), ClusteredBoxes(2500, seed)}) {
      for (const auto& [slices, tiles] : shapes) {
        TSTRPartitioner tstr(slices, tiles);
        tstr.Train(boxes);
        std::vector<std::pair<int64_t, size_t>> keys;
        for (size_t i = 0; i < boxes.size(); ++i) {
          keys.emplace_back(RefCenterT(boxes[i]), i);
        }
        std::sort(keys.begin(), keys.end());
        std::vector<int64_t> ts;
        for (const auto& k : keys) ts.push_back(k.first);
        EXPECT_EQ(tstr.t_splits(), RefCuts(ts, slices));
        ASSERT_EQ(tstr.tilings().size(), static_cast<size_t>(slices));
        int gx = tstr.tilings()[0].gx;
        int gy = tstr.tilings()[0].gy;
        for (int s = 0; s < slices; ++s) {
          size_t lo = keys.size() * static_cast<size_t>(s) / slices;
          size_t hi = keys.size() * static_cast<size_t>(s + 1) / slices;
          std::vector<std::pair<double, double>> centers;
          for (size_t i = lo; i < hi; ++i) {
            const STBox& b = boxes[keys[i].second];
            centers.emplace_back(RefCenterX(b), RefCenterY(b));
          }
          SCOPED_TRACE(testing::Message() << "T-STR(" << slices << ","
                                          << tiles << ") slice " << s);
          ExpectSameTiling(tstr.tilings()[s], RefTiling(centers, gx, gy));
        }
      }
    }
  }
}

TEST(PartitionerTest, StrFamilyTrainsOnZeroAndOneBox) {
  STBox only(Mbr(3, 4, 5, 6), Duration(100, 200));
  std::vector<STBox> probes = {
      only, STBox(Mbr(-1e9, -1e9, -1e9, -1e9), Duration(-5, -5)),
      STBox(Mbr(1e9, 1e9, 1e9, 1e9), Duration(1 << 30, 1 << 30)),
      STBox(Mbr(-1e9, -1e9, 1e9, 1e9), Duration(-5, 1 << 30))};
  for (size_t train_size : {0u, 1u}) {
    std::vector<STBox> train(train_size, only);
    std::vector<std::unique_ptr<STPartitioner>> partitioners;
    partitioners.push_back(std::make_unique<STRPartitioner>(16));
    partitioners.push_back(std::make_unique<TSTRPartitioner>(4, 4));
    partitioners.push_back(std::make_unique<TSTRPartitioner>(2, 4));
    for (auto& p : partitioners) {
      p->Train(train);
      for (size_t i = 0; i < probes.size(); ++i) {
        std::vector<int> primary = p->Assign(probes[i], false, i);
        ASSERT_EQ(primary.size(), 1u);
        EXPECT_GE(primary[0], 0);
        EXPECT_LT(primary[0], p->num_partitions());
        std::vector<int> all = p->Assign(probes[i], true, i);
        EXPECT_NE(std::find(all.begin(), all.end(), primary[0]), all.end())
            << "train size " << train_size << ", probe " << i;
        for (int q : all) {
          EXPECT_GE(q, 0);
          EXPECT_LT(q, p->num_partitions());
        }
      }
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

// --- TrySTPartition: the parallel scatter equals the serial loop. ---

std::vector<STEvent> RandomEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<STEvent> events;
  for (int i = 0; i < n; ++i) {
    STEvent e;
    e.spatial = Point(rng.Uniform(0, 100), rng.Uniform(0, 100));
    e.temporal = Duration(rng.UniformInt(0, 1000));
    e.data.id = i;
    events.push_back(e);
  }
  return events;
}

STBox EventBox(const STEvent& e) {
  // Wide enough that duplicate mode replicates boundary-crossing records.
  STBox box = e.ComputeSTBox();
  box.mbr = box.mbr.Buffered(3.0);
  box.time = Duration(box.time.start() - 20, box.time.end() + 20);
  return box;
}

uint64_t EventId(const STEvent& e) { return static_cast<uint64_t>(e.data.id); }

/// Partition contents as record ids, in order.
using Layout = std::vector<std::vector<int64_t>>;

/// The serial loop TrySTPartition must match: collect, train on every
/// envelope in scan order, then place each record in order.
Layout SerialReference(const std::vector<STEvent>& records,
                       STPartitioner* partitioner, bool duplicate,
                       uint64_t* moved, uint64_t* bytes) {
  std::vector<STBox> boxes;
  for (const STEvent& e : records) boxes.push_back(EventBox(e));
  partitioner->Train(boxes);
  Layout layout(static_cast<size_t>(partitioner->num_partitions()));
  *moved = 0;
  *bytes = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    uint64_t id = EventId(records[i]);
    for (int p : partitioner->Assign(boxes[i], duplicate, id)) {
      layout[static_cast<size_t>(p)].push_back(records[i].data.id);
      *moved += 1;
      *bytes += ApproxShuffleBytes(records[i]);
    }
  }
  return layout;
}

TEST(STPartitionTest, ParallelScatterEqualsSerialLoop) {
  for (int n : {0, 1, 777}) {
    std::vector<STEvent> events = RandomEvents(n, 11);
    for (bool duplicate : {false, true}) {
      TSTRPartitioner reference_partitioner(3, 4);
      uint64_t want_moved = 0;
      uint64_t want_bytes = 0;
      Layout want = SerialReference(events, &reference_partitioner, duplicate,
                                    &want_moved, &want_bytes);
      if (n > 1 && duplicate) {
        EXPECT_GT(want_moved, events.size());
      }
      for (int workers : {1, 8}) {
        for (size_t input_parts : {1u, 5u}) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " duplicate=" << duplicate
                       << " workers=" << workers << " inputs=" << input_parts);
          auto ctx = ExecutionContext::Create(workers);
          auto data = Dataset<STEvent>::Parallelize(ctx, events, input_parts);
          ctx->ResetMetrics();
          TSTRPartitioner tstr(3, 4);
          STPartitionOptions options;
          options.duplicate = duplicate;
          auto partitioned =
              TrySTPartition(data, &tstr, EventBox, EventId, options);
          ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
          Layout got(partitioned->num_partitions());
          for (size_t p = 0; p < got.size(); ++p) {
            for (const STEvent& e : partitioned->partition(p)) {
              got[p].push_back(e.data.id);
            }
          }
          EXPECT_EQ(got, want);
          const MetricsSnapshot snap = ctx->MetricsSnapshot();
          EXPECT_EQ(snap[Counter::kShuffleRecordsStPartition], want_moved);
          EXPECT_EQ(snap[Counter::kShuffleBytesStPartition], want_bytes);
          EXPECT_EQ(snap[Counter::kShuffleRecords], want_moved);
          EXPECT_EQ(snap[Counter::kShuffleBytes], want_bytes);
        }
      }
    }
  }
}

/// Trains to a fixed partition count, then assigns an id past it.
class OutOfRangePartitioner : public STPartitioner {
 public:
  void Train(const std::vector<STBox>& boxes) override { (void)boxes; }
  int num_partitions() const override { return 4; }
  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override {
    (void)box;
    (void)duplicate;
    out->push_back(record_id == 150 ? 4 : static_cast<int>(record_id % 4));
  }
};

TEST(STPartitionTest, OutOfRangeAssignmentIsInternal) {
  for (int workers : {1, 8}) {
    auto ctx = ExecutionContext::Create(workers);
    auto data = Dataset<STEvent>::Parallelize(ctx, RandomEvents(300, 12), 6);
    OutOfRangePartitioner bad;
    auto partitioned = TrySTPartition(data, &bad, EventBox, EventId);
    ASSERT_FALSE(partitioned.ok());
    EXPECT_EQ(partitioned.status().code(), Status::Code::kInternal);
    EXPECT_EQ(ctx->MetricsSnapshot()[Counter::kShuffleRecordsStPartition], 0u);
  }
}

// --- Sampled training, reused assign buffers, and moved records. ---

/// The serial loop with training on the strided sample the sampling rule
/// names: envelope k * n / S in scan order for k < S, every envelope when
/// n <= S. Written out here rather than through StridedSample, so the rule
/// itself is pinned.
Layout SampledSerialReference(const std::vector<STEvent>& records,
                              STPartitioner* partitioner, bool duplicate,
                              uint64_t* moved, uint64_t* bytes) {
  const size_t n = records.size();
  const size_t s = kSTPartitionTrainSample;
  std::vector<STBox> boxes;
  for (const STEvent& e : records) boxes.push_back(EventBox(e));
  std::vector<STBox> sample;
  if (n <= s) {
    sample = boxes;
  } else {
    for (size_t k = 0; k < s; ++k) sample.push_back(boxes[k * n / s]);
  }
  partitioner->Train(sample);
  Layout layout(static_cast<size_t>(partitioner->num_partitions()));
  *moved = 0;
  *bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    for (int p : partitioner->Assign(boxes[i], duplicate, EventId(records[i]))) {
      layout[static_cast<size_t>(p)].push_back(records[i].data.id);
      *moved += 1;
      *bytes += ApproxShuffleBytes(records[i]);
    }
  }
  return layout;
}

Layout LayoutOf(const Dataset<STEvent>& data) {
  Layout layout(data.num_partitions());
  for (size_t p = 0; p < layout.size(); ++p) {
    for (const STEvent& e : data.partition(p)) layout[p].push_back(e.data.id);
  }
  return layout;
}

TEST(STPartitionTest, TrainsOnTheStridedSample) {
  const size_t s = kSTPartitionTrainSample;
  for (size_t n : {s, s + 1, 3 * s + 7}) {
    std::vector<STEvent> events = RandomEvents(static_cast<int>(n), 13);
    for (bool duplicate : {false, true}) {
      TSTRPartitioner reference_partitioner(3, 4);
      uint64_t want_moved = 0;
      uint64_t want_bytes = 0;
      Layout want = SampledSerialReference(events, &reference_partitioner,
                                           duplicate, &want_moved, &want_bytes);
      for (int workers : {1, 8}) {
        for (size_t input_parts : {1u, 5u}) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " duplicate=" << duplicate
                       << " workers=" << workers << " inputs=" << input_parts);
          auto ctx = ExecutionContext::Create(workers);
          auto data = Dataset<STEvent>::Parallelize(ctx, events, input_parts);
          ctx->ResetMetrics();
          TSTRPartitioner tstr(3, 4);
          STPartitionOptions options;
          options.duplicate = duplicate;
          auto partitioned = TrySTPartition(std::move(data), &tstr, EventBox,
                                            EventId, options);
          ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
          EXPECT_EQ(LayoutOf(*partitioned), want);
          EXPECT_EQ(tstr.t_splits(), reference_partitioner.t_splits());
          const MetricsSnapshot snap = ctx->MetricsSnapshot();
          EXPECT_EQ(snap[Counter::kShuffleRecordsStPartition], want_moved);
          EXPECT_EQ(snap[Counter::kShuffleBytesStPartition], want_bytes);
        }
      }
    }
  }
}

/// Everything an event carries, comparable.
using EventKey =
    std::tuple<int64_t, std::string, double, double, int64_t, int64_t>;

EventKey KeyOf(const STEvent& e) {
  return {e.data.id,   std::string(e.data.attr), e.spatial.x,
          e.spatial.y, e.temporal.start(),        e.temporal.end()};
}

/// Partition contents as full event keys, in order.
std::vector<std::vector<EventKey>> ContentsOf(const Dataset<STEvent>& data) {
  std::vector<std::vector<EventKey>> contents(data.num_partitions());
  for (size_t p = 0; p < contents.size(); ++p) {
    for (const STEvent& e : data.partition(p)) contents[p].push_back(KeyOf(e));
  }
  return contents;
}

/// Events whose attrs are longer than InlineString::kInlineCapacity, so
/// each lives on the heap: a moved record keeps its attr buffer and a
/// copied one does not. With `heap_attrs` false the attrs fit inline.
std::vector<STEvent> EventsWithHeapAttrs(int n, uint64_t seed,
                                         bool heap_attrs = true) {
  std::vector<STEvent> events = RandomEvents(n, seed);
  for (STEvent& e : events) {
    e.data.attr = (heap_attrs ? "heap-allocated attribute payload of event "
                              : "ev ") +
                  std::to_string(e.data.id);
    ST4ML_CHECK(e.data.attr.is_heap() == heap_attrs) << e.data.attr;
  }
  return events;
}

std::map<int64_t, const char*> AttrBuffers(const Dataset<STEvent>& data) {
  std::map<int64_t, const char*> buffers;
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    for (const STEvent& e : data.partition(p)) {
      buffers[e.data.id] = e.data.attr.data();
    }
  }
  return buffers;
}

TEST(STPartitionTest, SoleOwnedInputMovesRecords) {
  for (int workers : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    auto ctx = ExecutionContext::Create(workers);
    auto data = Dataset<STEvent>::Parallelize(
        ctx, EventsWithHeapAttrs(500, 14), 5);
    const std::map<int64_t, const char*> before = AttrBuffers(data);
    TSTRPartitioner tstr(3, 4);
    auto partitioned = TrySTPartition(std::move(data), &tstr, EventBox,
                                      EventId);
    ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
    EXPECT_EQ(AttrBuffers(*partitioned), before);
  }
}

TEST(STPartitionTest, SharedInputIsCopiedAndLeftIntact) {
  const std::vector<STEvent> events = EventsWithHeapAttrs(500, 15);
  for (bool duplicate : {false, true}) {
    for (int workers : {1, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "duplicate=" << duplicate << " workers=" << workers);
      STPartitionOptions options;
      options.duplicate = duplicate;
      // Copy path: the caller keeps a second live handle.
      auto ctx = ExecutionContext::Create(workers);
      auto data = Dataset<STEvent>::Parallelize(ctx, events, 5);
      Dataset<STEvent> second = data;
      const std::map<int64_t, const char*> before = AttrBuffers(second);
      ctx->ResetMetrics();
      TSTRPartitioner copy_tstr(3, 4);
      auto copied = TrySTPartition(std::move(data), &copy_tstr, EventBox,
                                   EventId, options);
      ASSERT_TRUE(copied.ok()) << copied.status().ToString();
      const MetricsSnapshot copy_snap = ctx->MetricsSnapshot();
      std::vector<std::vector<EventKey>> original(1);
      for (const STEvent& e : events) original[0].push_back(KeyOf(e));
      EXPECT_EQ(ContentsOf(second.Repartition(1)), original);
      EXPECT_EQ(AttrBuffers(second), before);
      for (const auto& [id, buffer] : AttrBuffers(*copied)) {
        EXPECT_NE(buffer, before.at(id)) << "record " << id;
      }

      // Move path (when not duplicating): the sole handle is handed over.
      auto move_ctx = ExecutionContext::Create(workers);
      auto sole = Dataset<STEvent>::Parallelize(move_ctx, events, 5);
      move_ctx->ResetMetrics();
      TSTRPartitioner move_tstr(3, 4);
      auto moved = TrySTPartition(std::move(sole), &move_tstr, EventBox,
                                  EventId, options);
      ASSERT_TRUE(moved.ok()) << moved.status().ToString();
      const MetricsSnapshot move_snap = move_ctx->MetricsSnapshot();

      EXPECT_EQ(ContentsOf(*moved), ContentsOf(*copied));
      for (Counter c : {Counter::kShuffleRecordsStPartition,
                        Counter::kShuffleBytesStPartition,
                        Counter::kShuffleRecords, Counter::kShuffleBytes}) {
        EXPECT_EQ(move_snap[c], copy_snap[c]);
      }
      EXPECT_GT(move_snap[Counter::kShuffleRecordsStPartition], 0u);
    }
  }
}

TEST(STPartitionTest, InlineAttrsSurviveMovesAndCopiesByValue) {
  // Attrs that fit inline travel inside their event: the moving and the
  // copying partition give the same contents, every attr still inline.
  const std::vector<STEvent> events = EventsWithHeapAttrs(500, 16, false);
  std::vector<EventKey> want;
  for (const STEvent& e : events) want.push_back(KeyOf(e));
  std::sort(want.begin(), want.end());
  for (int workers : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    auto ctx = ExecutionContext::Create(workers);
    auto data = Dataset<STEvent>::Parallelize(ctx, events, 5);
    Dataset<STEvent> second = data;
    TSTRPartitioner copy_tstr(3, 4);
    auto copied = TrySTPartition(std::move(data), &copy_tstr, EventBox,
                                 EventId);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    TSTRPartitioner move_tstr(3, 4);
    auto moved = TrySTPartition(
        Dataset<STEvent>::Parallelize(ctx, events, 5), &move_tstr, EventBox,
        EventId);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(ContentsOf(*moved), ContentsOf(*copied));
    std::vector<EventKey> got;
    for (const auto& part : ContentsOf(*moved)) {
      got.insert(got.end(), part.begin(), part.end());
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    for (size_t p = 0; p < moved->num_partitions(); ++p) {
      for (const STEvent& e : moved->partition(p)) {
        EXPECT_FALSE(e.data.attr.is_heap()) << "event " << e.data.id;
      }
    }
  }
}

TEST(PartitionerTest, AssignEqualsAssignToOnAClearedBuffer) {
  auto boxes = ClusteredBoxes(1500, 16);
  for (STBox& b : boxes) b.mbr = b.mbr.Buffered(6.0);  // cross boundaries
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    std::vector<int> buffer;
    for (size_t i = 0; i < boxes.size(); ++i) {
      for (bool duplicate : {false, true}) {
        std::vector<int> want = p->Assign(boxes[i], duplicate, i);
        buffer.clear();
        p->AssignTo(boxes[i], duplicate, i, &buffer);
        EXPECT_EQ(buffer, want) << "box " << i << " duplicate " << duplicate;
        // AssignTo appends: what the buffer held stays, in front.
        std::vector<int> prefixed = {-1, -2};
        p->AssignTo(boxes[i], duplicate, i, &prefixed);
        ASSERT_EQ(prefixed.size(), want.size() + 2);
        EXPECT_EQ(prefixed[0], -1);
        EXPECT_EQ(prefixed[1], -2);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), prefixed.begin() + 2));
      }
    }
  }
}

}  // namespace
}  // namespace st4ml
