#include "selection/selector.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/execution_context.h"
#include "selection/on_disk_index.h"
#include "storage/records.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_selector_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> RandomEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    r.time = rng.UniformInt(0, 100000);
    r.attr = "e";
    events.push_back(r);
  }
  return events;
}

std::vector<int64_t> SortedIds(const Dataset<EventRecord>& data) {
  std::vector<int64_t> ids;
  for (const EventRecord& r : data.Collect()) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> ReferenceIds(const std::vector<EventRecord>& events,
                                  const STBox& query) {
  std::vector<int64_t> ids;
  for (const EventRecord& r : events) {
    if (r.ComputeSTBox().Intersects(query)) ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

class SelectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = ExecutionContext::Create(2);
    events_ = RandomEvents(3000, 31);
    dir_ = TempDir("index");
    meta_ = dir_ + "/index.meta";
    auto data = Dataset<EventRecord>::Parallelize(ctx_, events_, 4);
    TSTRPartitioner partitioner(4, 4);
    ASSERT_TRUE(BuildOnDiskIndex(data, &partitioner, dir_, meta_).ok());
  }

  std::shared_ptr<ExecutionContext> ctx_;
  std::vector<EventRecord> events_;
  std::string dir_;
  std::string meta_;
};

TEST_F(SelectorTest, FullScanMatchesReferencePredicate) {
  std::vector<STBox> queries = {
      STBox(Mbr(10, 10, 40, 40), Duration(0, 50000)),
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)),
      STBox(Mbr(70, 70, 71, 71), Duration(90000, 90001)),
      STBox(Mbr(200, 200, 300, 300), Duration(0, 100000)),  // empty result
  };
  for (const STBox& query : queries) {
    Selector<EventRecord> selector(ctx_, SelectQuery::FromBox(query));
    auto selected = selector.Select(dir_);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    EXPECT_EQ(SortedIds(*selected), ReferenceIds(events_, query));
  }
}

TEST_F(SelectorTest, MetaPrunedEqualsFullScan) {
  std::vector<STBox> queries = {
      STBox(Mbr(10, 10, 40, 40), Duration(0, 50000)),
      STBox(Mbr(50, 0, 100, 30), Duration(25000, 75000)),
      STBox(Mbr(0, 0, 5, 5), Duration(0, 5000)),
  };
  for (const STBox& query : queries) {
    Selector<EventRecord> full(ctx_, SelectQuery::FromBox(query));
    Selector<EventRecord> pruned(ctx_, SelectQuery::FromBox(query));
    auto full_result = full.Select(dir_);
    auto pruned_result = pruned.Select(dir_, meta_);
    ASSERT_TRUE(full_result.ok());
    ASSERT_TRUE(pruned_result.ok()) << pruned_result.status().ToString();
    EXPECT_EQ(SortedIds(*pruned_result), SortedIds(*full_result));
  }
}

TEST_F(SelectorTest, PruningLoadsFewerBytesOnSelectiveQuery) {
  STBox query(Mbr(5, 5, 15, 15), Duration(0, 10000));
  // Pin the linear-scan plan: under the mmap index BOTH selectors already
  // read only matching bytes, which is a different assertion (below).
  SelectorOptions options;
  options.use_disk_index = false;
  Selector<EventRecord> full(ctx_, SelectQuery::FromBox(query), options);
  Selector<EventRecord> pruned(ctx_, SelectQuery::FromBox(query), options);
  ASSERT_TRUE(full.Select(dir_).ok());
  ASSERT_TRUE(pruned.Select(dir_, meta_).ok());
  EXPECT_GT(full.stats().bytes_loaded, 0u);
  EXPECT_LT(pruned.stats().bytes_loaded, full.stats().bytes_loaded);
  EXPECT_EQ(pruned.stats().bytes_selected, full.stats().bytes_selected);
}

TEST_F(SelectorTest, MmapIndexMatchesLinearScanAndReadsFewerBytes) {
  STBox query(Mbr(5, 5, 25, 25), Duration(0, 30000));
  SelectorOptions with_index;
  with_index.use_disk_index = true;
  SelectorOptions without;
  without.use_disk_index = false;
  Selector<EventRecord> indexed(ctx_, SelectQuery::FromBox(query), with_index);
  Selector<EventRecord> scanned(ctx_, SelectQuery::FromBox(query), without);
  auto ri = indexed.Select(dir_, meta_);
  auto rs = scanned.Select(dir_, meta_);
  ASSERT_TRUE(ri.ok()) << ri.status().ToString();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(SortedIds(*ri), SortedIds(*rs));
  EXPECT_EQ(SortedIds(*ri), ReferenceIds(events_, query));
  // The selective query keeps a small fraction; ranged reads must beat
  // parsing the surviving files end to end.
  EXPECT_GT(scanned.stats().bytes_loaded, 0u);
  EXPECT_LT(indexed.stats().bytes_loaded, scanned.stats().bytes_loaded);
  EXPECT_EQ(indexed.stats().bytes_selected, scanned.stats().bytes_selected);
}

TEST_F(SelectorTest, IdPredicateComposesIdenticallyAcrossPlans) {
  std::vector<int64_t> wanted = {7, 250, 251, 252, 1999, 2998, 5000};
  SelectQuery id_only = SelectQuery::FromIds(wanted);
  SelectQuery id_and_box = SelectQuery::FromIds(wanted);
  id_and_box.box = STBox(Mbr(0, 0, 60, 60), Duration(0, 100000));
  for (const SelectQuery& query : {id_only, id_and_box}) {
    std::vector<int64_t> expected;
    for (const EventRecord& r : events_) {
      if (query.MatchesId(r.id) && r.ComputeSTBox().Intersects(query.box)) {
        expected.push_back(r.id);
      }
    }
    std::sort(expected.begin(), expected.end());
    for (bool disk_index : {false, true}) {
      SelectorOptions options;
      options.use_disk_index = disk_index;
      Selector<EventRecord> selector(ctx_, query, options);
      auto selected = selector.Select(dir_, meta_);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      EXPECT_EQ(SortedIds(*selected), expected)
          << "disk_index=" << disk_index;
    }
  }
}

TEST_F(SelectorTest, EmptyIdSetMatchesNothing) {
  SelectQuery query = SelectQuery::FromBox(
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)));
  query.SetIds({});
  for (bool disk_index : {false, true}) {
    SelectorOptions options;
    options.use_disk_index = disk_index;
    Selector<EventRecord> selector(ctx_, query, options);
    auto selected = selector.Select(dir_, meta_);
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(selected->Count(), 0u) << "disk_index=" << disk_index;
  }
}

// A cached entry is records + envelope columns, refined by the same kernel
// pass as the linear scan. Under a budget that holds one file, select through
// a miss, a resident hit, a miss that evicts the first file, and that file's
// reload: each must select exactly what an uncached linear scan of the same
// file selects, with the same record-flow counters.
TEST_F(SelectorTest, CachedMissHitAndReloadMatchLinearScan) {
  STBox query(Mbr(20, 20, 60, 60), Duration(10000, 80000));
  const std::string dir_a = TempDir("cache_a");
  const std::string dir_b = TempDir("cache_b");
  const std::vector<EventRecord> half_a(events_.begin(),
                                        events_.begin() + 1500);
  const std::vector<EventRecord> half_b(events_.begin() + 1500, events_.end());
  ASSERT_TRUE(PersistDataset(
                  Dataset<EventRecord>::Parallelize(ctx_, half_a, 1), dir_a)
                  .ok());
  ASSERT_TRUE(PersistDataset(
                  Dataset<EventRecord>::Parallelize(ctx_, half_b, 1), dir_b)
                  .ok());
  uint64_t budget = 0;
  for (const std::string& dir : {dir_a, dir_b}) {
    ASSERT_EQ(ListStpqFiles(dir).size(), 1u);
    budget = std::max(budget, FileSizeBytes(ListStpqFiles(dir)[0]));
  }

  auto cached_ctx = ExecutionContext::Create(2);
  DatasetCache::Options cache_options;
  cache_options.budget_bytes = budget;
  cached_ctx->ConfigureCache(cache_options);
  auto scan_ctx = ExecutionContext::Create(2);
  scan_ctx->ConfigureCache({});  // budget 0: every Select reads its file
  SelectorOptions scan_options;
  scan_options.use_disk_index = false;

  struct Step {
    const std::string* dir;
    Counter expect;  // the cache counter this step must move
  };
  const Step steps[] = {{&dir_a, Counter::kCacheMisses},
                        {&dir_a, Counter::kCacheHits},
                        {&dir_b, Counter::kCacheMisses},
                        {&dir_a, Counter::kCacheReloadBytes}};
  for (size_t s = 0; s < 4; ++s) {
    const MetricsSnapshot cached_before = cached_ctx->MetricsSnapshot();
    const MetricsSnapshot scan_before = scan_ctx->MetricsSnapshot();
    Selector<EventRecord> cached(cached_ctx, SelectQuery::FromBox(query));
    Selector<EventRecord> scan(scan_ctx, SelectQuery::FromBox(query),
                               scan_options);
    auto got = cached.Select(*steps[s].dir);
    auto want = scan.Select(*steps[s].dir);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    std::vector<int64_t> got_ids;
    std::vector<int64_t> want_ids;
    for (const EventRecord& r : got->Collect()) got_ids.push_back(r.id);
    for (const EventRecord& r : want->Collect()) want_ids.push_back(r.id);
    EXPECT_FALSE(want_ids.empty()) << "step " << s;
    EXPECT_EQ(got_ids, want_ids) << "step " << s;
    EXPECT_EQ(cached.stats().bytes_selected, scan.stats().bytes_selected)
        << "step " << s;

    const MetricsSnapshot cached_after = cached_ctx->MetricsSnapshot();
    const MetricsSnapshot scan_after = scan_ctx->MetricsSnapshot();
    for (Counter c : {Counter::kSelectionRecordsOut,
                      Counter::kSelectionBytesSelected,
                      Counter::kPartitionsScanned}) {
      EXPECT_EQ(cached_after[c] - cached_before[c],
                scan_after[c] - scan_before[c])
          << "step " << s << " counter " << static_cast<int>(c);
    }
    EXPECT_GT(cached_after[steps[s].expect], cached_before[steps[s].expect])
        << "step " << s;
  }
  // The resident hit re-read nothing; the second miss evicted the first file.
  const MetricsSnapshot m = cached_ctx->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kCacheMisses], 2u);
  EXPECT_EQ(m[Counter::kCacheHits], 2u);
  EXPECT_GE(m[Counter::kCacheEvictions], 1u);
}

TEST_F(SelectorTest, PartitionAfterSelectRedistributes) {
  STBox query(Mbr(0, 0, 100, 100), Duration(0, 100000));
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(2, 2);
  options.partition_after_select = true;
  Selector<EventRecord> selector(ctx_, SelectQuery::FromBox(query), options);
  auto selected = selector.Select(dir_, meta_);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->num_partitions(),
            static_cast<size_t>(options.partitioner->num_partitions()));
  EXPECT_EQ(SortedIds(*selected), ReferenceIds(events_, query));
}

TEST_F(SelectorTest, PersistDatasetSupportsFullScanOnly) {
  std::string plain = TempDir("plain");
  auto data = Dataset<EventRecord>::Parallelize(ctx_, events_, 3);
  ASSERT_TRUE(PersistDataset(data, plain).ok());
  STBox query(Mbr(30, 30, 70, 70), Duration(20000, 60000));
  Selector<EventRecord> selector(ctx_, SelectQuery::FromBox(query));
  auto selected = selector.Select(plain);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(SortedIds(*selected), ReferenceIds(events_, query));
}

}  // namespace
}  // namespace st4ml
