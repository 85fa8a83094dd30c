#include "conversion/singular_to_collective.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "conversion/shuffle_conversion.h"
#include "engine/execution_context.h"
#include "engine/pair_ops.h"

namespace st4ml {
namespace {

std::vector<STEvent> RandomEvents(int n, uint64_t seed, const Mbr& extent,
                                  const Duration& range) {
  Rng rng(seed);
  std::vector<STEvent> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    STEvent e;
    e.spatial = Point(rng.Uniform(extent.x_min, extent.x_max),
                      rng.Uniform(extent.y_min, extent.y_max));
    e.temporal = Duration(rng.UniformInt(range.start(), range.end()));
    e.data.id = i;
    events.push_back(e);
  }
  return events;
}

std::vector<STTrajectory> RandomTrajs(int n, uint64_t seed, const Mbr& extent,
                                      const Duration& range) {
  Rng rng(seed);
  std::vector<STTrajectory> trajs;
  trajs.reserve(n);
  for (int i = 0; i < n; ++i) {
    STTrajectory t;
    t.data = i;
    int points = static_cast<int>(rng.UniformInt(2, 12));
    int64_t start = rng.UniformInt(range.start(), range.end() - 600);
    double x = rng.Uniform(extent.x_min, extent.x_max);
    double y = rng.Uniform(extent.y_min, extent.y_max);
    for (int k = 0; k < points; ++k) {
      STEntry entry;
      entry.point = Point(x, y);
      entry.time = start + k * 60;
      t.entries.push_back(entry);
      x += rng.Uniform(-0.4, 0.4);
      y += rng.Uniform(-0.4, 0.4);
    }
    trajs.push_back(t);
  }
  return trajs;
}

/// Merged per-bin event counts across partitions, as one flat vector.
template <typename Coll>
std::vector<std::vector<int64_t>> MergedIds(const std::vector<Coll>& pieces) {
  std::vector<std::vector<int64_t>> ids;
  if (pieces.empty()) return ids;
  ids.resize(pieces[0].size());
  for (const Coll& piece : pieces) {
    for (size_t i = 0; i < piece.size(); ++i) {
      for (const auto& item : piece.value(i)) {
        if constexpr (std::is_same_v<std::decay_t<decltype(item)>, STEvent>) {
          ids[i].push_back(item.data.id);
        } else {
          ids[i].push_back(item.data);
        }
      }
    }
  }
  for (auto& bucket : ids) std::sort(bucket.begin(), bucket.end());
  return ids;
}

class ConversionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = ExecutionContext::Create(2);
    extent_ = Mbr(0, 0, 10, 10);
    range_ = Duration(0, 36000);
    events_ = RandomEvents(800, 41, extent_, range_);
    trajs_ = RandomTrajs(200, 42, extent_, range_);
    event_data_ = Dataset<STEvent>::Parallelize(ctx_, events_, 4);
    traj_data_ = Dataset<STTrajectory>::Parallelize(ctx_, trajs_, 4);
  }

  std::shared_ptr<ExecutionContext> ctx_;
  Mbr extent_;
  Duration range_;
  std::vector<STEvent> events_;
  std::vector<STTrajectory> trajs_;
  Dataset<STEvent> event_data_;
  Dataset<STTrajectory> traj_data_;
};

TEST_F(ConversionTest, EventToTimeSeriesFirstBinSemantics) {
  auto structure =
      std::make_shared<TemporalStructure>(TemporalStructure::Regular(range_, 10));
  TimeSeriesConverter<STEvent> converter(structure);
  auto series = converter.Convert(event_data_).Collect();
  auto merged = MergedIds(series);

  std::vector<std::vector<int64_t>> expected(structure->size());
  for (const STEvent& e : events_) {
    for (size_t i = 0; i < structure->size(); ++i) {
      if (structure->bin(i).Contains(e.temporal.start())) {
        expected[i].push_back(e.data.id);  // FIRST containing bin only
        break;
      }
    }
  }
  for (auto& bucket : expected) std::sort(bucket.begin(), bucket.end());
  EXPECT_EQ(merged, expected);
}

TEST_F(ConversionTest, TrajToTimeSeriesJoinsEveryIntersectingBin) {
  auto structure =
      std::make_shared<TemporalStructure>(TemporalStructure::Regular(range_, 6));
  TimeSeriesConverter<STTrajectory> converter(structure);
  auto merged = MergedIds(converter.Convert(traj_data_).Collect());

  std::vector<std::vector<int64_t>> expected(structure->size());
  for (const STTrajectory& t : trajs_) {
    Duration span = t.TemporalExtent();
    for (size_t i = 0; i < structure->size(); ++i) {
      if (structure->bin(i).Intersects(span)) expected[i].push_back(t.data);
    }
  }
  for (auto& bucket : expected) std::sort(bucket.begin(), bucket.end());
  EXPECT_EQ(merged, expected);
}

TEST_F(ConversionTest, NaiveAndRtreeStrategiesAgreeOnGrid) {
  auto grid = std::make_shared<SpatialStructure>(
      SpatialStructure::Grid(extent_, 5, 5));
  SpatialMapConverter<STEvent> naive(grid, ConversionStrategy::kNaive);
  SpatialMapConverter<STEvent> rtree(grid, ConversionStrategy::kRTree);
  SpatialMapConverter<STEvent> automatic(grid, ConversionStrategy::kAuto);
  auto a = MergedIds(naive.Convert(event_data_).Collect());
  auto b = MergedIds(rtree.Convert(event_data_).Collect());
  auto c = MergedIds(automatic.Convert(event_data_).Collect());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(ConversionTest, NaiveAndRtreeStrategiesAgreeOnOverlappingIrregular) {
  // Overlapping cells exercise first-match semantics in the indexed path.
  std::vector<Polygon> cells;
  for (int i = 0; i < 12; ++i) {
    double x = (i % 4) * 2.5, y = (i / 4) * 3.0;
    cells.push_back(Polygon::FromMbr(Mbr(x, y, x + 3.5, y + 4.0)));
  }
  auto irregular =
      std::make_shared<SpatialStructure>(SpatialStructure::Irregular(cells));
  SpatialMapConverter<STEvent> naive(irregular, ConversionStrategy::kNaive);
  SpatialMapConverter<STEvent> rtree(irregular, ConversionStrategy::kRTree);
  EXPECT_EQ(MergedIds(naive.Convert(event_data_).Collect()),
            MergedIds(rtree.Convert(event_data_).Collect()));

  SpatialMapConverter<STTrajectory> tn(irregular, ConversionStrategy::kNaive);
  SpatialMapConverter<STTrajectory> tr(irregular, ConversionStrategy::kRTree);
  EXPECT_EQ(MergedIds(tn.Convert(traj_data_).Collect()),
            MergedIds(tr.Convert(traj_data_).Collect()));
}

TEST_F(ConversionTest, RasterCrossProductSemantics) {
  auto raster = std::make_shared<RasterStructure>(
      RasterStructure::Regular(extent_, 3, 3, range_, 4));
  RasterConverter<STTrajectory> converter(raster);
  auto merged = MergedIds(converter.Convert(traj_data_).Collect());

  const SpatialStructure& s = raster->spatial();
  const TemporalStructure& ts = raster->temporal();
  std::vector<std::vector<int64_t>> expected(raster->size());
  for (const STTrajectory& t : trajs_) {
    LineString shape = t.Shape();
    Duration span = t.TemporalExtent();
    for (size_t bin = 0; bin < ts.size(); ++bin) {
      if (!ts.bin(bin).Intersects(span)) continue;
      for (size_t cell = 0; cell < s.size(); ++cell) {
        if (shape.IntersectsMbr(s.cell_mbr(cell))) {
          expected[raster->FlatIndex(cell, bin)].push_back(t.data);
        }
      }
    }
  }
  for (auto& bucket : expected) std::sort(bucket.begin(), bucket.end());
  EXPECT_EQ(merged, expected);
}

TEST_F(ConversionTest, PreAndAggRunPerPartition) {
  auto structure =
      std::make_shared<TemporalStructure>(TemporalStructure::Regular(range_, 5));
  TimeSeriesConverter<STEvent> converter(structure);
  auto counts = converter
                    .Convert(
                        event_data_, [](const STEvent&) { return int64_t{1}; },
                        [](const std::vector<int64_t>& ones) {
                          return static_cast<int64_t>(ones.size());
                        })
                    .Collect();
  std::vector<int64_t> total(structure->size(), 0);
  for (const auto& piece : counts) {
    for (size_t i = 0; i < piece.size(); ++i) total[i] += piece.value(i);
  }
  int64_t sum = 0;
  for (int64_t c : total) sum += c;
  EXPECT_EQ(sum, static_cast<int64_t>(events_.size()));
}

TEST_F(ConversionTest, BroadcastAndShuffleDesignsAgree) {
  auto grid = std::make_shared<SpatialStructure>(
      SpatialStructure::Grid(extent_, 4, 4));
  auto count = [](const std::vector<STEvent>& items) {
    return static_cast<int64_t>(items.size());
  };
  ctx_->ResetMetrics();
  SpatialMapConverter<STEvent> broadcast_conv(grid);
  auto pieces = broadcast_conv.Convert(event_data_, conversion_internal::IdentityPre{},
                                       count)
                    .Collect();
  std::vector<int64_t> broadcast_counts(grid->size(), 0);
  for (const auto& piece : pieces) {
    for (size_t i = 0; i < piece.size(); ++i) {
      broadcast_counts[i] += piece.value(i);
    }
  }
  const MetricsSnapshot before = ctx_->MetricsSnapshot();
  uint64_t broadcasts = before[Counter::kBroadcasts];
  uint64_t shuffled_before = before[Counter::kShuffleRecords];

  auto shuffled = TryConvertToSpatialMapByShuffle(event_data_, grid, count);
  ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
  EXPECT_EQ(shuffled->values(), broadcast_counts);
  // The broadcast design ships the structure, not the records.
  EXPECT_GE(broadcasts, 1u);
  EXPECT_EQ(shuffled_before, 0u);
  EXPECT_GT(ctx_->MetricsSnapshot()[Counter::kShuffleRecords], 0u);
}

}  // namespace
}  // namespace st4ml
