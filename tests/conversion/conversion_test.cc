#include "conversion/singular_to_collective.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "conversion/parse.h"
#include "conversion/shuffle_conversion.h"
#include "engine/execution_context.h"
#include "engine/pair_ops.h"
#include "extraction/rdd_api.h"
#include "storage/records.h"

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

int64_t IdOf(const STEvent& e) { return e.data.id; }
int64_t IdOf(const STTrajectory& t) { return t.data; }

/// Merged per-bin event counts across partitions, as one flat vector.
template <typename Coll>
std::vector<std::vector<int64_t>> MergedIds(const std::vector<Coll>& pieces) {
  std::vector<std::vector<int64_t>> ids;
  if (pieces.empty()) return ids;
  ids.resize(pieces[0].size());
  for (const Coll& piece : pieces) {
    for (size_t i = 0; i < piece.size(); ++i) {
      for (const auto& item : piece.value(i)) ids[i].push_back(IdOf(item));
    }
  }
  for (auto& bucket : ids) std::sort(bucket.begin(), bucket.end());
  return ids;
}

/// Per-piece, per-slot instance ids in bucket order: equal only when two
/// conversions agree partition by partition, not just after merging.
template <typename Coll>
std::vector<std::vector<std::vector<int64_t>>> PieceIds(
    const std::vector<Coll>& pieces) {
  std::vector<std::vector<std::vector<int64_t>>> out;
  for (const Coll& piece : pieces) {
    std::vector<std::vector<int64_t>> slots(piece.size());
    for (size_t i = 0; i < piece.size(); ++i) {
      for (const auto& item : piece.value(i)) slots[i].push_back(IdOf(item));
    }
    out.push_back(std::move(slots));
  }
  return out;
}

/// `cols` x `rows` overlapping rectangles over [0,10]^2, each wider and
/// taller than its pitch, so points and lines hit several cells and
/// first-match order matters.
std::vector<Polygon> OverlappingCells(int cols, int rows) {
  std::vector<Polygon> cells;
  double dx = 10.0 / cols, dy = 10.0 / rows;
  for (int i = 0; i < cols * rows; ++i) {
    double x = (i % cols) * dx, y = (i / cols) * dy;
    cells.push_back(Polygon::FromMbr(Mbr(x, y, x + 1.4 * dx, y + 1.3 * dy)));
  }
  return cells;
}

using AnyStructure = std::variant<std::shared_ptr<const TemporalStructure>,
                                  std::shared_ptr<const SpatialStructure>,
                                  std::shared_ptr<const RasterStructure>>;

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

/// kNaive and kAuto on one structure and one instance type, through both
/// Convert spellings: identical buckets piece by piece, one broadcast for
/// kNaive and `auto_broadcasts` (the structure, plus the R-tree when one is
/// built) for kAuto per Convert.
template <typename T, typename S>
void ExpectNaiveMatchesAuto(const ExecutionContext& ctx, const Dataset<T>& data,
                            const std::shared_ptr<const S>& structure,
                            uint64_t auto_broadcasts) {
  Converter<T, S> naive(structure, ConversionStrategy::kNaive);
  Converter<T, S> automatic(structure, ConversionStrategy::kAuto);
  auto broadcasts = [&ctx] {
    return ctx.MetricsSnapshot()[Counter::kBroadcasts];
  };

  uint64_t before = broadcasts();
  auto a = PieceIds(naive.Convert(data).Collect());
  uint64_t mid = broadcasts();
  auto b = PieceIds(automatic.Convert(data).Collect());
  EXPECT_EQ(mid - before, 1u);
  EXPECT_EQ(broadcasts() - mid, auto_broadcasts);
  EXPECT_EQ(a, b);
  size_t assigned = 0;
  for (const auto& piece : a) {
    for (const auto& slot : piece) assigned += slot.size();
  }
  EXPECT_GT(assigned, 0u);

  auto pre = [](const T& item) { return IdOf(item); };
  auto agg = [](std::vector<int64_t> ids) { return ids; };
  before = broadcasts();
  auto c = naive.Convert(data, pre, agg).Collect();
  mid = broadcasts();
  auto d = automatic.Convert(data, pre, agg).Collect();
  EXPECT_EQ(mid - before, 1u);
  EXPECT_EQ(broadcasts() - mid, auto_broadcasts);
  ASSERT_EQ(c.size(), d.size());
  for (size_t p = 0; p < c.size(); ++p) {
    EXPECT_EQ(c[p].values(), d[p].values());
    EXPECT_EQ(c[p].values(), a[p]);
  }
}

TEST_F(ConversionTest, NaiveAndAutoStrategiesAgreeOnEveryStructure) {
  auto bins = TemporalStructure::Regular(range_, 10);
  struct Case {
    std::string name;
    AnyStructure structure;
    uint64_t auto_broadcasts;
  };
  const std::vector<Case> cases = {
      {"bins", std::make_shared<const TemporalStructure>(bins), 1},
      {"grid",
       std::make_shared<const SpatialStructure>(
           SpatialStructure::Grid(extent_, 5, 5)),
       1},
      {"irregular, 12 overlapping cells",
       std::make_shared<const SpatialStructure>(
           SpatialStructure::Irregular(OverlappingCells(4, 3))),
       2},
      {"irregular, 6 overlapping cells",
       std::make_shared<const SpatialStructure>(
           SpatialStructure::Irregular(OverlappingCells(3, 2))),
       1},
      {"raster over a grid",
       std::make_shared<const RasterStructure>(
           RasterStructure::Regular(extent_, 3, 3, range_, 4)),
       1},
      {"raster over 12 irregular cells",
       std::make_shared<const RasterStructure>(RasterStructure::CrossProduct(
           OverlappingCells(4, 3),
           TemporalStructure::Regular(range_, 4).bins())),
       2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::visit(
        [&](const auto& structure) {
          {
            SCOPED_TRACE("events");
            ExpectNaiveMatchesAuto(*ctx_, event_data_, structure,
                                   c.auto_broadcasts);
          }
          {
            SCOPED_TRACE("trajectories");
            ExpectNaiveMatchesAuto(*ctx_, traj_data_, structure,
                                   c.auto_broadcasts);
          }
        },
        c.structure);
  }
}

TEST_F(ConversionTest, ZeroPartitionInputConvertsAsOneEmptyPartition) {
  // What a selection that prunes every partition hands the converter.
  auto no_events =
      Dataset<STEvent>::FromPartitions(ctx_, Dataset<STEvent>::Partitions{});
  const std::vector<AnyStructure> structures = {
      std::make_shared<const TemporalStructure>(
          TemporalStructure::Regular(range_, 4)),
      std::make_shared<const SpatialStructure>(
          SpatialStructure::Irregular(OverlappingCells(4, 3))),
      std::make_shared<const RasterStructure>(
          RasterStructure::Regular(extent_, 3, 3, range_, 2)),
  };
  for (const AnyStructure& any : structures) {
    std::visit(
        [&](const auto& structure) {
          using S = typename std::decay_t<decltype(structure)>::element_type;
          Converter<STEvent, S> converter(structure);
          auto converted = converter.Convert(no_events);
          ASSERT_EQ(converted.num_partitions(), 1u);
          auto counts = MapValue(converted, [](const Bucket<STEvent>& v) {
            return static_cast<int64_t>(v.size());
          });
          auto merged = CollectAndMerge(
              counts, int64_t{0}, [](int64_t a, int64_t b) { return a + b; });
          EXPECT_EQ(merged.values(),
                    std::vector<int64_t>(structure->size(), 0));
        },
        any);
  }
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

TEST_F(ConversionTest, PreRunsOncePerItemOnOverlappingRaster) {
  // air_over_road's shape: overlapping irregular cells x overlapping bins,
  // so one event joins several cells x several bins. The last bin spans the
  // whole range and the cells cover the extent, so every event joins.
  std::vector<Duration> bins = {Duration(0, 20000), Duration(10000, 30000),
                                Duration(0, 36000)};
  auto raster = std::make_shared<const RasterStructure>(
      RasterStructure::CrossProduct(OverlappingCells(4, 3), bins));
  auto pre_agg_ids = [&](ConversionStrategy strategy, int64_t* calls) {
    std::atomic<int64_t> counter{0};
    auto pre = [&counter](const STEvent& e) {
      counter.fetch_add(1, std::memory_order_relaxed);
      return IdOf(e);
    };
    auto agg = [](std::vector<int64_t> ids) { return ids; };
    RasterConverter<STEvent> converter(raster, strategy);
    auto pieces = converter.Convert(event_data_, pre, agg).Collect();
    *calls = counter.load();
    std::vector<std::vector<std::vector<int64_t>>> out;
    for (const auto& piece : pieces) out.push_back(piece.values());
    return out;
  };
  int64_t naive_calls = 0;
  int64_t auto_calls = 0;
  auto naive = pre_agg_ids(ConversionStrategy::kNaive, &naive_calls);
  auto automatic = pre_agg_ids(ConversionStrategy::kAuto, &auto_calls);
  EXPECT_EQ(naive_calls, static_cast<int64_t>(events_.size()));
  EXPECT_EQ(auto_calls, static_cast<int64_t>(events_.size()));
  EXPECT_EQ(naive, automatic);
  size_t assigned = 0;
  for (const auto& piece : naive) {
    for (const auto& slot : piece) assigned += slot.size();
  }
  EXPECT_GT(assigned, 2 * events_.size());  // events really join many slots

  // The bucketing spelling agrees with the pre/agg spelling piece by piece.
  RasterConverter<STEvent> converter(raster);
  EXPECT_EQ(PieceIds(converter.Convert(event_data_).Collect()), naive);
}

TEST_F(ConversionTest, BucketsStoreEachInstanceOncePerPartition) {
  auto grid = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(extent_, 6, 6));
  SpatialMapConverter<STTrajectory> converter(grid);
  const auto pieces = converter.Convert(traj_data_).Collect();
  ASSERT_EQ(pieces.size(), traj_data_.num_partitions());
  for (size_t p = 0; p < pieces.size(); ++p) {
    const auto& piece = pieces[p];
    // The one stored copy of each instance is the input partition's own.
    const std::vector<STTrajectory>& input = traj_data_.partition(p);
    const BucketStore<STTrajectory>* store = nullptr;
    std::vector<int64_t> ids;
    for (size_t i = 0; i < piece.size(); ++i) {
      const Bucket<STTrajectory>& bucket = piece.value(i);
      if (bucket.empty()) {
        EXPECT_EQ(bucket.store(), nullptr);  // empty slots reference nothing
        EXPECT_TRUE(bucket.begin() == bucket.end());
        continue;
      }
      if (store == nullptr) store = bucket.store();
      EXPECT_EQ(bucket.store(), store);
      EXPECT_EQ(store->items.get(), &input);
      for (size_t j = 0; j < bucket.size(); ++j) {
        EXPECT_EQ(&bucket[j], &input[bucket.index(j)]);
        // Parallelize keeps ids ascending within a partition; the sort is
        // stable, so they stay ascending within each slot.
        if (j > 0) {
          EXPECT_LT(IdOf(bucket[j - 1]), IdOf(bucket[j]));
        }
        ids.push_back(IdOf(bucket[j]));
      }
    }
    ASSERT_NE(store, nullptr);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<uint32_t> positions = store->order;
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    EXPECT_EQ(positions.size(), ids.size());
    EXPECT_GT(store->order.size(), positions.size());  // lines span cells
  }
}

TEST_F(ConversionTest, ConvertedCollectivesOutliveInputAndConverter) {
  auto grid = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(extent_, 5, 5));
  std::vector<std::vector<int64_t>> expected(grid->size());
  for (const STTrajectory& t : trajs_) {
    LineString shape = t.Shape();
    for (size_t i = 0; i < grid->size(); ++i) {
      if (shape.IntersectsMbr(grid->cell_mbr(i))) expected[i].push_back(t.data);
    }
  }
  std::vector<SpatialMap<Bucket<STTrajectory>>> pieces;
  {
    auto data = Dataset<STTrajectory>::Parallelize(ctx_, trajs_, 4);
    SpatialMapConverter<STTrajectory> converter(grid);
    auto converted = converter.Convert(data);
    pieces = converted.Collect();
  }  // the input, the converter and the converted Dataset are gone
  grid.reset();
  std::vector<SpatialMap<Bucket<STTrajectory>>> copies = pieces;
  pieces.clear();

  for (auto& bucket : expected) std::sort(bucket.begin(), bucket.end());
  EXPECT_EQ(MergedIds(copies), expected);
  for (const auto& piece : copies) {
    for (size_t i = 0; i < piece.size(); ++i) {
      for (const STTrajectory& t : piece.value(i)) {
        EXPECT_EQ(t.entries.size(),
                  trajs_[static_cast<size_t>(t.data)].entries.size());
      }
    }
  }
}

/// The broadcast converter and the shuffle design on one structure: equal
/// per-cell counts, with the structure broadcast and no record shuffled by
/// the first, records shuffled by the second.
template <typename T>
void ExpectShuffleMatchesBroadcast(
    ExecutionContext& ctx, const Dataset<T>& data,
    const std::shared_ptr<const SpatialStructure>& structure) {
  auto count = [](const std::vector<T>& items) {
    return static_cast<int64_t>(items.size());
  };
  ctx.ResetMetrics();
  SpatialMapConverter<T> broadcast_conv(structure);
  SpatialMap<int64_t> broadcast = CollectAndMerge(
      broadcast_conv.Convert(data, [](const T& item) { return item; }, count),
      int64_t{0}, [](int64_t a, int64_t b) { return a + b; });
  const MetricsSnapshot before = ctx.MetricsSnapshot();

  auto shuffled = TryConvertToSpatialMapByShuffle(data, structure, count);
  ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
  EXPECT_EQ(shuffled->values(), broadcast.values());
  int64_t total = 0;
  for (int64_t c : broadcast.values()) total += c;
  EXPECT_GT(total, 0);
  // The broadcast design ships the structure, not the records.
  EXPECT_GE(before[Counter::kBroadcasts], 1u);
  EXPECT_EQ(before[Counter::kShuffleRecords], 0u);
  EXPECT_GT(ctx.MetricsSnapshot()[Counter::kShuffleRecords], 0u);
}

TEST_F(ConversionTest, BroadcastAndShuffleDesignsAgree) {
  const std::vector<std::shared_ptr<const SpatialStructure>> structures = {
      std::make_shared<const SpatialStructure>(
          SpatialStructure::Grid(extent_, 4, 4)),
      std::make_shared<const SpatialStructure>(
          SpatialStructure::Irregular(OverlappingCells(4, 3))),
  };
  for (const auto& structure : structures) {
    SCOPED_TRACE(structure->is_grid() ? "grid" : "irregular");
    ExpectShuffleMatchesBroadcast(*ctx_, event_data_, structure);
    ExpectShuffleMatchesBroadcast(*ctx_, traj_data_, structure);
  }
}

// --- Parsing: a by-value sink moves a sole-owned input, copies a shared one.

/// Records whose attrs are longer than InlineString::kInlineCapacity, so
/// each lives on the heap and a moved attr keeps its buffer, or (with
/// `heap_attrs` false) short enough to live inline in the record.
std::vector<EventRecord> RandomEventRecords(int n, uint64_t seed,
                                            bool heap_attrs = true) {
  Rng rng(seed);
  std::vector<EventRecord> records(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EventRecord& r = records[static_cast<size_t>(i)];
    r.id = i;
    r.x = rng.Uniform(0, 10);
    r.y = rng.Uniform(0, 10);
    r.time = rng.UniformInt(0, 36000);
    r.attr = (heap_attrs ? "heap-allocated attribute payload of record "
                         : "rec ") +
             std::to_string(i);
    ST4ML_CHECK(r.attr.is_heap() == heap_attrs) << r.attr;
  }
  return records;
}

std::vector<TrajRecord> RandomTrajRecords(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TrajRecord> records(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TrajRecord& r = records[static_cast<size_t>(i)];
    r.id = i;
    int64_t t = rng.UniformInt(0, 36000);
    for (int k = 0; k < 1 + i % 7; ++k) {
      r.points.push_back(
          TrajPointRecord{rng.Uniform(0, 10), rng.Uniform(0, 10), t + 30 * k});
    }
  }
  return records;
}

using EventKey =
    std::tuple<int64_t, std::string, double, double, int64_t, int64_t>;

std::vector<std::vector<EventKey>> EventContents(const Dataset<STEvent>& data) {
  std::vector<std::vector<EventKey>> out(data.num_partitions());
  for (size_t p = 0; p < out.size(); ++p) {
    for (const STEvent& e : data.partition(p)) {
      out[p].emplace_back(e.data.id, e.data.attr, e.spatial.x, e.spatial.y,
                          e.temporal.start(), e.temporal.end());
    }
  }
  return out;
}

std::vector<EventKey> RecordKeys(const std::vector<EventRecord>& records) {
  std::vector<EventKey> out;
  for (const EventRecord& r : records) {
    out.emplace_back(r.id, r.attr, r.x, r.y, r.time, r.time);
  }
  return out;
}

std::vector<const char*> AttrBuffers(const Dataset<EventRecord>& data) {
  std::vector<const char*> out;
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    for (const EventRecord& r : data.partition(p)) out.push_back(r.attr.data());
  }
  return out;
}

std::vector<const char*> AttrBuffers(const Dataset<STEvent>& data) {
  std::vector<const char*> out;
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    for (const STEvent& e : data.partition(p)) out.push_back(e.data.attr.data());
  }
  return out;
}

using TrajKey = std::pair<int64_t, std::vector<std::tuple<double, double, int64_t>>>;

std::vector<std::vector<TrajKey>> TrajContents(
    const Dataset<STTrajectory>& data) {
  std::vector<std::vector<TrajKey>> out(data.num_partitions());
  for (size_t p = 0; p < out.size(); ++p) {
    for (const STTrajectory& t : data.partition(p)) {
      TrajKey key{t.data, {}};
      for (const STEntry& e : t.entries) {
        key.second.emplace_back(e.point.x, e.point.y, e.time);
      }
      out[p].push_back(std::move(key));
    }
  }
  return out;
}

std::vector<TrajKey> TrajRecordKeys(const std::vector<TrajRecord>& records) {
  std::vector<TrajKey> out;
  for (const TrajRecord& r : records) {
    TrajKey key{r.id, {}};
    for (const TrajPointRecord& p : r.points) {
      key.second.emplace_back(p.x, p.y, p.time);
    }
    out.push_back(std::move(key));
  }
  return out;
}

TEST_F(ConversionTest, ParseEventsMovesASoleInputAndCopiesASharedOne) {
  const std::vector<EventRecord> records = RandomEventRecords(600, 51);

  auto shared = Dataset<EventRecord>::Parallelize(ctx_, records, 4);
  const std::vector<const char*> shared_buffers = AttrBuffers(shared);
  Dataset<STEvent> from_shared = ParseEvents(shared);
  // The shared input is untouched, buffers included.
  EXPECT_EQ(RecordKeys(shared.Collect()), RecordKeys(records));
  EXPECT_EQ(AttrBuffers(shared), shared_buffers);

  auto sole = Dataset<EventRecord>::Parallelize(ctx_, records, 4);
  const std::vector<const char*> sole_buffers = AttrBuffers(sole);
  Dataset<STEvent> from_sole = ParseEvents(std::move(sole));

  EXPECT_EQ(EventContents(from_sole), EventContents(from_shared));
  ASSERT_EQ(from_shared.num_partitions(), 4u);
  std::vector<EventKey> flat;
  for (const auto& part : EventContents(from_shared)) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  EXPECT_EQ(flat, RecordKeys(records));
  // Moved: every attr kept its buffer. Copied: none did.
  EXPECT_EQ(AttrBuffers(from_sole), sole_buffers);
  std::vector<const char*> copied = AttrBuffers(from_shared);
  for (size_t i = 0; i < copied.size(); ++i) {
    EXPECT_NE(copied[i], shared_buffers[i]) << "record " << i;
  }
}

TEST_F(ConversionTest, ParseEventsKeepsInlineAttrsByValue) {
  // Attributes that fit inline travel inside their record: a moved and a
  // copied event both carry the same bytes, and neither allocates.
  const std::vector<EventRecord> records =
      RandomEventRecords(600, 53, /*heap_attrs=*/false);

  auto shared = Dataset<EventRecord>::Parallelize(ctx_, records, 4);
  Dataset<STEvent> from_shared = ParseEvents(shared);
  EXPECT_EQ(RecordKeys(shared.Collect()), RecordKeys(records));

  auto sole = Dataset<EventRecord>::Parallelize(ctx_, records, 4);
  Dataset<STEvent> from_sole = ParseEvents(std::move(sole));

  EXPECT_EQ(EventContents(from_sole), EventContents(from_shared));
  std::vector<EventKey> flat;
  for (const auto& part : EventContents(from_sole)) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  EXPECT_EQ(flat, RecordKeys(records));
  for (size_t p = 0; p < from_sole.num_partitions(); ++p) {
    for (const STEvent& e : from_sole.partition(p)) {
      EXPECT_FALSE(e.data.attr.is_heap()) << "event " << e.data.id;
    }
  }
}

TEST_F(ConversionTest, ParseTrajsGivesTheSameFromASoleOrASharedInput) {
  const std::vector<TrajRecord> records = RandomTrajRecords(300, 52);

  auto shared = Dataset<TrajRecord>::Parallelize(ctx_, records, 4);
  Dataset<STTrajectory> from_shared = ParseTrajs(shared);
  EXPECT_EQ(TrajRecordKeys(shared.Collect()), TrajRecordKeys(records));

  auto sole = Dataset<TrajRecord>::Parallelize(ctx_, records, 4);
  Dataset<STTrajectory> from_sole = ParseTrajs(std::move(sole));

  EXPECT_EQ(TrajContents(from_sole), TrajContents(from_shared));
  ASSERT_EQ(from_shared.num_partitions(), 4u);
  std::vector<TrajKey> flat;
  for (const auto& part : TrajContents(from_shared)) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  EXPECT_EQ(flat, TrajRecordKeys(records));
}

}  // namespace
}  // namespace st4ml
