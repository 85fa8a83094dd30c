#include "selection/selector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sidecar_free_copy.h"
#include "engine/execution_context.h"
#include "ingest/ingestor.h"
#include "selection/on_disk_index.h"
#include "storage/records.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;
using testing::SidecarFreeCopy;

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
  const SidecarFreeCopy scan(dir_);
  Selector<EventRecord> full(ctx_, SelectQuery::FromBox(query));
  Selector<EventRecord> pruned(ctx_, SelectQuery::FromBox(query));
  ASSERT_TRUE(full.Select(scan.dir()).ok());
  ASSERT_TRUE(pruned.Select(scan.dir(), scan.meta()).ok());
  EXPECT_GT(full.stats().bytes_loaded, 0u);
  EXPECT_LT(pruned.stats().bytes_loaded, full.stats().bytes_loaded);
  EXPECT_EQ(pruned.stats().bytes_selected, full.stats().bytes_selected);
}

TEST_F(SelectorTest, MmapIndexMatchesLinearScanAndReadsFewerBytes) {
  STBox query(Mbr(5, 5, 25, 25), Duration(0, 30000));
  const SidecarFreeCopy scan(dir_);
  Selector<EventRecord> indexed(ctx_, SelectQuery::FromBox(query));
  Selector<EventRecord> scanned(ctx_, SelectQuery::FromBox(query));
  auto ri = indexed.Select(dir_, meta_);
  auto rs = scanned.Select(scan.dir(), scan.meta());
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
  const SidecarFreeCopy scan(dir_);
  for (const SelectQuery& query : {id_only, id_and_box}) {
    std::vector<int64_t> expected;
    for (const EventRecord& r : events_) {
      if (query.MatchesId(r.id) && r.ComputeSTBox().Intersects(query.box)) {
        expected.push_back(r.id);
      }
    }
    std::sort(expected.begin(), expected.end());
    for (const std::string& dir : {scan.dir(), dir_}) {
      Selector<EventRecord> selector(ctx_, query);
      auto selected = selector.Select(dir, dir + "/index.meta");
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      EXPECT_EQ(SortedIds(*selected), expected) << dir;
    }
  }
}

TEST_F(SelectorTest, EmptyIdSetMatchesNothing) {
  SelectQuery query = SelectQuery::FromBox(
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)));
  query.SetIds({});
  const SidecarFreeCopy scan(dir_);
  for (const std::string& dir : {scan.dir(), dir_}) {
    Selector<EventRecord> selector(ctx_, query);
    auto selected = selector.Select(dir, dir + "/index.meta");
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(selected->Count(), 0u) << dir;
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
    Selector<EventRecord> scan(scan_ctx, SelectQuery::FromBox(query));
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

// On a cached file a count_only Select copies nothing out and a limit
// Select at most `limit` records per file — each file's lowest ids — while
// the match count and the record-flow counters stay those of the full set.
TEST_F(SelectorTest, CachedShapingCopiesOnlyWhatItKeeps) {
  const STBox box(Mbr(10, 10, 80, 80), Duration(0, 90000));
  const std::vector<int64_t> all = ReferenceIds(events_, box);
  ASSERT_GT(all.size(), 100u);
  auto ctx = ExecutionContext::Create(2);
  DatasetCache::Options cache_options;
  cache_options.budget_bytes = DatasetCache::kUnbounded;
  ctx->ConfigureCache(cache_options);
  Selector<EventRecord> unshaped(ctx, SelectQuery::FromBox(box));
  auto full = unshaped.Select(dir_, meta_);  // also loads the cache
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(unshaped.stats().records_matched, all.size());

  for (int pass = 0; pass < 2; ++pass) {  // a load, then resident hits
    SelectQuery counted = SelectQuery::FromBox(box);
    counted.count_only = true;
    const MetricsSnapshot before = ctx->MetricsSnapshot();
    Selector<EventRecord> counter(ctx, counted);
    auto none = counter.Select(dir_, meta_);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    const MetricsSnapshot after = ctx->MetricsSnapshot();
    EXPECT_EQ(none->Count(), 0u);
    EXPECT_EQ(counter.stats().records_matched, all.size());
    EXPECT_EQ(counter.stats().bytes_selected, unshaped.stats().bytes_selected);
    EXPECT_EQ(after[Counter::kSelectionRecordsOut] -
                  before[Counter::kSelectionRecordsOut],
              all.size());
    EXPECT_GT(after[Counter::kPlannerCachedIndex],
              before[Counter::kPlannerCachedIndex]);

    SelectQuery limited = SelectQuery::FromBox(box);
    limited.limit = 4;
    Selector<EventRecord> limiter(ctx, limited);
    auto some = limiter.Select(dir_, meta_);
    ASSERT_TRUE(some.ok()) << some.status().ToString();
    EXPECT_EQ(limiter.stats().records_matched, all.size());
    ASSERT_EQ(some->num_partitions(), full->num_partitions());
    for (size_t p = 0; p < full->num_partitions(); ++p) {
      // The file's 4 lowest ids, in the order the file holds them.
      std::vector<int64_t> file_ids;
      for (const EventRecord& r : full->partition(p)) file_ids.push_back(r.id);
      std::vector<int64_t> lowest(file_ids);
      std::sort(lowest.begin(), lowest.end());
      lowest.resize(std::min<size_t>(lowest.size(), 4));
      std::vector<int64_t> want;
      for (int64_t id : file_ids) {
        if (std::binary_search(lowest.begin(), lowest.end(), id)) {
          want.push_back(id);
        }
      }
      std::vector<int64_t> kept;
      for (const EventRecord& r : some->partition(p)) kept.push_back(r.id);
      EXPECT_EQ(kept, want) << "file " << p;
    }
  }
}

// A 3-id lookup on a cached 10k-record file binary-searches the file's id
// directory: only the 3 candidates go through the kernel, not 10k.
TEST(SelectorIdDirectoryTest, CachedIdLookupRefinesOnlyItsCandidates) {
  const std::string dir = TempDir("id_directory");
  auto ctx = ExecutionContext::Create(2);
  std::vector<EventRecord> events = RandomEvents(10000, 23);
  std::reverse(events.begin(), events.end());  // ids arrive unsorted
  ASSERT_TRUE(
      PersistDataset(Dataset<EventRecord>::Parallelize(ctx, events, 1), dir)
          .ok());
  ASSERT_EQ(ListStpqFiles(dir).size(), 1u);
  DatasetCache::Options cache_options;
  cache_options.budget_bytes = DatasetCache::kUnbounded;
  ctx->ConfigureCache(cache_options);
  const std::vector<int64_t> wanted = {3, 4321, 9999};
  for (int pass = 0; pass < 2; ++pass) {  // the load, then a resident hit
    const uint64_t before = accel::BackendRegistry::Instance().batch_records();
    Selector<EventRecord> selector(ctx, SelectQuery::FromIds(wanted));
    auto got = selector.Select(dir);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(accel::BackendRegistry::Instance().batch_records() - before,
              wanted.size())
        << "pass " << pass;
    EXPECT_EQ(SortedIds(*got), wanted) << "pass " << pass;
    EXPECT_EQ(ctx->MetricsSnapshot()[Counter::kPlannerCachedIndex],
              static_cast<uint64_t>(pass + 1));
  }
}

TEST_F(SelectorTest, PartitionAfterSelectRedistributes) {
  STBox query(Mbr(0, 0, 100, 100), Duration(0, 100000));
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(2, 2);
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

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A record of exactly `bytes` on disk at `time`, far outside the boundary
// test's box.
EventRecord Filler(int64_t id, uint64_t bytes, int64_t time) {
  EventRecord r;
  r.id = id;
  r.x = 90;
  r.y = 90;
  r.time = time;
  r.attr = std::string(bytes - StpqRecordBytes(EventRecord{}), 'f');
  return r;
}

TEST_F(SelectorTest, HoleLimitSplitsCoveringReadsExactlyAtTheLimit) {
  // Hits at records 0, 2 and 4. The gap between the first two is exactly
  // the hole limit, so one read covers both; the next gap is one byte
  // more, so the third hit costs a read of its own.
  std::string dir = TempDir("hole_limit");
  std::vector<EventRecord> records;
  for (int64_t i = 0; i < 3; ++i) {
    EventRecord hit;
    hit.id = 100 + i;
    hit.x = 5 + static_cast<double>(i);
    hit.y = 5;
    hit.time = 10 * (i + 1);
    hit.attr = "hit";
    records.push_back(hit);
    if (i == 0) records.push_back(Filler(1, kStpqReadHoleLimit, 15));
    if (i == 1) records.push_back(Filler(2, kStpqReadHoleLimit + 1, 25));
  }
  // Five records make one leaf, whose STR order is time order: the part
  // writer keeps this layout.
  const std::string path = dir + "/part-00000.stpq";
  ASSERT_TRUE(WriteIndexedPart(dir, "part-00000.stpq", records,
                               RetryPolicy::None(), nullptr)
                  .ok());
  auto stored = ReadStpqFile<EventRecord>(path);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ((*stored)[i].id, records[i].id) << "layout moved at " << i;
  }
  const STBox query(Mbr(0, 0, 20, 20), Duration(0, 100));

  ctx_->ResetMetrics();
  Selector<EventRecord> indexed(ctx_, SelectQuery::FromBox(query));
  auto ri = indexed.Select(dir);
  ASSERT_TRUE(ri.ok()) << ri.status().ToString();
  MetricsSnapshot m = ctx_->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPlannerMmapIndex], 1u);
  EXPECT_EQ(m[Counter::kStpqReadCalls], 2u);
  const uint64_t first_span = StpqRecordBytes(records[0]) +
                              StpqRecordBytes(records[1]) +
                              StpqRecordBytes(records[2]);
  EXPECT_EQ(indexed.stats().bytes_loaded,
            kStpqHeaderBytes + first_span + StpqRecordBytes(records[4]));

  const SidecarFreeCopy scan(dir);
  ctx_->ResetMetrics();
  Selector<EventRecord> scanned(ctx_, SelectQuery::FromBox(query));
  auto rs = scanned.Select(scan.dir());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(ctx_->MetricsSnapshot()[Counter::kPlannerLinearScan], 1u);
  EXPECT_EQ(ctx_->MetricsSnapshot()[Counter::kStpqReadCalls], 1u);

  std::string out = TempDir("hole_limit_out");
  ASSERT_TRUE(WriteStpqFile(out + "/indexed.stpq", ri->Collect()).ok());
  ASSERT_TRUE(WriteStpqFile(out + "/scanned.stpq", rs->Collect()).ok());
  EXPECT_EQ(ri->Count(), 3u);
  EXPECT_EQ(Slurp(out + "/indexed.stpq"), Slurp(out + "/scanned.stpq"));
}

// Each file's plan follows its own input: with half the sidecars deleted,
// the cold Select serves exactly those files by the linear scan and the
// rest through their sidecars, and its output is byte-identical to a
// Select over a copy with no sidecars at all.
TEST_F(SelectorTest, HalfTheSidecarsSplitThePlansByFile) {
  const SidecarFreeCopy scan(dir_);
  const std::vector<std::string> files = ListStpqFiles(dir_);
  ASSERT_GE(files.size(), 2u);
  uint64_t removed = 0;
  for (size_t i = 0; i < files.size(); i += 2) {
    ASSERT_TRUE(fs::remove(StixPathFor(files[i])));
    ++removed;
  }
  const STBox query(Mbr(10, 10, 70, 70), Duration(0, 80000));
  ctx_->ConfigureCache({});
  ctx_->ResetMetrics();
  Selector<EventRecord> mixed(ctx_, SelectQuery::FromBox(query));
  auto got = mixed.Select(dir_);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const MetricsSnapshot m = ctx_->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPlannerLinearScan], removed);
  EXPECT_EQ(m[Counter::kPlannerMmapIndex], files.size() - removed);
  EXPECT_EQ(m[Counter::kIndexFilesMmapped], files.size() - removed);

  ctx_->ResetMetrics();
  Selector<EventRecord> all_scan(ctx_, SelectQuery::FromBox(query));
  auto want = all_scan.Select(scan.dir());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(ctx_->MetricsSnapshot()[Counter::kPlannerLinearScan],
            files.size());
  EXPECT_EQ(ctx_->MetricsSnapshot()[Counter::kPlannerMmapIndex], 0u);

  EXPECT_GT(want->Count(), 0u);
  std::string out = TempDir("half_sidecars_out");
  ASSERT_TRUE(WriteStpqFile(out + "/mixed.stpq", got->Collect()).ok());
  ASSERT_TRUE(WriteStpqFile(out + "/scanned.stpq", want->Collect()).ok());
  EXPECT_EQ(Slurp(out + "/mixed.stpq"), Slurp(out + "/scanned.stpq"));
}

// A part file whose header count is lowered from 10 to 9. The stomp also
// changes the header fingerprint, so the sidecar is stale and the cold
// Select falls to the linear scan. That scan must reject the file, as the
// cached plan's load must: the 9 records the count claims are never served.
TEST(SelectorCorruptionTest, LoweredHeaderCountFailsEveryPlan) {
  const std::string dir = TempDir("lowered_count");
  const std::string meta = dir + "/index.meta";
  auto build_ctx = ExecutionContext::Create(2);
  auto data =
      Dataset<EventRecord>::Parallelize(build_ctx, RandomEvents(10, 5), 1);
  TSTRPartitioner partitioner(1, 1);
  ASSERT_TRUE(BuildOnDiskIndex(data, &partitioner, dir, meta).ok());
  const std::vector<std::string> files = ListStpqFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  std::string bytes = Slurp(files[0]);
  const size_t count_at = sizeof(kStpqMagic) + 1;
  uint64_t count = 0;
  std::memcpy(&count, &bytes[count_at], sizeof(count));
  ASSERT_EQ(count, 10u);
  count = 9;
  std::memcpy(&bytes[count_at], &count, sizeof(count));
  {
    std::ofstream stomp(files[0], std::ios::binary | std::ios::trunc);
    stomp << bytes;
  }
  EXPECT_FALSE(StixIndex::Open(StixPathFor(files[0]), files[0]).ok());

  const SelectQuery query = SelectQuery::FromBox(
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)));
  for (uint64_t budget : {uint64_t{0}, DatasetCache::kUnbounded}) {
    auto ctx = ExecutionContext::Create(2);
    DatasetCache::Options cache_options;
    cache_options.budget_bytes = budget;
    ctx->ConfigureCache(cache_options);
    Selector<EventRecord> selector(ctx, query);
    auto selected = selector.Select(dir, meta);
    ASSERT_FALSE(selected.ok()) << "budget " << budget << " served "
                                << selected->Count() << " records";
    EXPECT_EQ(selected.status().code(), Status::Code::kCorruption)
        << selected.status().ToString();
  }
}

// One NaN-coordinate record and one at +inf: the part box skips the NaN
// envelope and keeps the infinite one, index.meta round-trips both, and the
// pruned select returns exactly what the full scan returns.
TEST(SelectorPartListTest, NanAndInfiniteRecordsKeepThePartListReadable) {
  const std::string dir = TempDir("nan_inf");
  const std::string meta = dir + "/index.meta";
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<EventRecord> events = RandomEvents(300, 17);
  events[0].x = std::nan("");  // first of its part: the union starts there
  events[47].y = inf;
  auto ctx = ExecutionContext::Create(2);
  TSTRPartitioner partitioner(2, 2);
  ASSERT_TRUE(BuildOnDiskIndex(Dataset<EventRecord>::Parallelize(ctx, events, 3),
                               &partitioner, dir, meta)
                  .ok());
  for (const STBox& box :
       {STBox(Mbr(-inf, -inf, inf, inf), Duration(0, 100000)),
        STBox(Mbr(10, 10, 60, 60), Duration(0, 50000))}) {
    Selector<EventRecord> pruned(ctx, SelectQuery::FromBox(box));
    auto got = pruned.Select(dir, meta);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Selector<EventRecord> scanned(ctx, SelectQuery::FromBox(box));
    auto want = scanned.Select(dir);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(SortedIds(*got), SortedIds(*want));
    EXPECT_EQ(SortedIds(*got), ReferenceIds(events, box));
  }
  IngestorOptions options;
  options.start_compactor = false;
  auto ingestor = Ingestor::Open(dir, options);
  EXPECT_TRUE(ingestor.ok()) << ingestor.status().ToString();
}

}  // namespace
}  // namespace st4ml
