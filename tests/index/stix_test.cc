#include "index/stix.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sidecar_free_copy.h"
#include "engine/execution_context.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"
#include "storage/records.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_stix_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> RandomEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = rng.UniformInt(0, n / 3);  // repeated ids -> real postings lists
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    r.time = rng.UniformInt(0, 100000);
    r.attr = std::string(static_cast<size_t>(rng.UniformInt(0, 8)), 'x');
    events.push_back(std::move(r));
  }
  return events;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Stages one .stpq + .stix pair through the part writer and returns the
/// .stpq path. `*events` becomes the records in their stored (leaf) order,
/// which is what record indices refer to.
std::string StagePair(const std::string& dir,
                      std::vector<EventRecord>* events) {
  auto part = WriteIndexedPart(dir, "part-00000.stpq", *events,
                               RetryPolicy::None(), nullptr);
  ST4ML_CHECK(part.ok()) << part.status().ToString();
  std::string path = dir + "/" + part->file;
  auto stored = ReadStpqFile<EventRecord>(path);
  ST4ML_CHECK(stored.ok()) << stored.status().ToString();
  *events = std::move(*stored);
  return path;
}

std::vector<uint32_t> BruteForceBox(const std::vector<EventRecord>& events,
                                    const STBox& box) {
  std::vector<uint32_t> hits;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].ComputeSTBox().Intersects(box)) {
      hits.push_back(static_cast<uint32_t>(i));
    }
  }
  return hits;
}

TEST(StixTest, QueryBoxMatchesBruteForce) {
  std::string dir = TempDir("roundtrip");
  auto events = RandomEvents(1200, 17);
  std::string path = StagePair(dir, &events);
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->record_count(), events.size());

  std::vector<STBox> queries = {
      STBox(Mbr(10, 10, 40, 40), Duration(0, 50000)),
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)),   // everything
      STBox(Mbr(70, 70, 70.5, 70.5), Duration(90000, 90010)),
      STBox(Mbr(200, 200, 300, 300), Duration(0, 100000)),  // nothing
  };
  for (const STBox& box : queries) {
    std::vector<uint32_t> hits;
    StixQueryStats stats;
    index->QueryBox(accel::BoxFilterQuery::FromBox(box), &hits, &stats);
    EXPECT_EQ(hits, BruteForceBox(events, box));
    // Leaf position is record index, so the hits ascend with no sort.
    EXPECT_TRUE(std::adjacent_find(hits.begin(), hits.end(),
                                   std::greater_equal<uint32_t>()) ==
                hits.end())
        << "hits not strictly ascending";
    EXPECT_GT(stats.pages_read, 0u);  // at least the root's page
  }
}

TEST(StixTest, LookupIdsMatchesBruteForce) {
  std::string dir = TempDir("lookup");
  auto events = RandomEvents(900, 23);
  std::string path = StagePair(dir, &events);
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::vector<int64_t> ids = {0, 3, 57, 123, 299, 1000000};  // last: absent
  std::sort(ids.begin(), ids.end());
  STBox box(Mbr(0, 0, 60, 60), Duration(0, 70000));
  for (bool apply_box : {false, true}) {
    std::vector<uint32_t> hits;
    StixQueryStats stats;
    index->LookupIds(ids, accel::BoxFilterQuery::FromBox(box), apply_box,
                     &hits, &stats);
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < events.size(); ++i) {
      if (!std::binary_search(ids.begin(), ids.end(), events[i].id)) continue;
      if (apply_box && !events[i].ComputeSTBox().Intersects(box)) continue;
      expected.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_EQ(hits, expected) << "apply_box=" << apply_box;
    if (!apply_box) {
      // Every posting resolved for a present id counts.
      EXPECT_EQ(stats.postings_hits, expected.size());
    }
  }
}

TEST(StixTest, EmptyPartitionRoundTrips) {
  std::string dir = TempDir("empty");
  std::vector<EventRecord> none;
  std::string path = StagePair(dir, &none);
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->record_count(), 0u);
  std::vector<uint32_t> hits;
  StixQueryStats stats;
  index->QueryBox(accel::BoxFilterQuery::FromBox(
                      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000))),
                  &hits, &stats);
  EXPECT_TRUE(hits.empty());
}

TEST(StixTest, TrajSidecarRoundTrips) {
  std::string dir = TempDir("traj");
  std::vector<TrajRecord> trajs;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    TrajRecord t;
    t.id = i % 40;
    int npoints = static_cast<int>(rng.UniformInt(1, 12));
    for (int p = 0; p < npoints; ++p) {
      t.points.push_back({rng.Uniform(0, 50), rng.Uniform(0, 50),
                          rng.UniformInt(0, 10000)});
    }
    trajs.push_back(std::move(t));
  }
  auto part = WriteIndexedPart(dir, "part-00000.stpq", trajs,
                               RetryPolicy::None(), nullptr);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  std::string path = dir + "/part-00000.stpq";
  auto stored = ReadStpqFile<TrajRecord>(path);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_EQ(stored->size(), trajs.size());
  trajs = std::move(*stored);
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  STBox box(Mbr(10, 10, 30, 30), Duration(2000, 8000));
  std::vector<uint32_t> hits;
  StixQueryStats stats;
  index->QueryBox(accel::BoxFilterQuery::FromBox(box), &hits, &stats);
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < trajs.size(); ++i) {
    if (trajs[i].ComputeSTBox().Intersects(box)) {
      expected.push_back(static_cast<uint32_t>(i));
    }
  }
  EXPECT_EQ(hits, expected);
}

class StixCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("corrupt");
    events_ = RandomEvents(400, 41);
    stpq_ = StagePair(dir_, &events_);
    stix_ = StixPathFor(stpq_);
    pristine_ = Slurp(stix_);
    ASSERT_GE(pristine_.size(), sizeof(StixHeader));
  }

  /// Applies `mutate` to a pristine copy, dumps it, and expects Open to
  /// fail with InvalidArgument whose message contains `expect_substr`.
  void ExpectRejected(const std::string& expect_substr,
                      const std::function<void(std::string*)>& mutate) {
    std::string bytes = pristine_;
    mutate(&bytes);
    Dump(stix_, bytes);
    auto index = StixIndex::Open(stix_, stpq_);
    ASSERT_FALSE(index.ok()) << "accepted a sidecar with " << expect_substr;
    EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument)
        << index.status().ToString();
    EXPECT_NE(index.status().message().find(expect_substr), std::string::npos)
        << index.status().ToString();
  }

  StixHeader HeaderOf(const std::string& bytes) {
    StixHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    return h;
  }

  void PutHeader(std::string* bytes, const StixHeader& h) {
    std::memcpy(bytes->data(), &h, sizeof(h));
  }

  std::string dir_, stpq_, stix_, pristine_;
  std::vector<EventRecord> events_;
};

TEST_F(StixCorruptionTest, RejectsBadMagic) {
  ExpectRejected("bad stix magic",
                 [](std::string* b) { (*b)[0] = 'Z'; });
}

TEST_F(StixCorruptionTest, RejectsUnsupportedVersion) {
  ExpectRejected("unsupported stix version", [&](std::string* b) {
    StixHeader h = HeaderOf(*b);
    h.version = 99;
    PutHeader(b, h);
  });
}

TEST_F(StixCorruptionTest, RejectsTruncatedHeader) {
  Dump(stix_, pristine_.substr(0, 40));
  auto index = StixIndex::Open(stix_, stpq_);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(index.status().message().find("truncated stix header"),
            std::string::npos);
}

TEST_F(StixCorruptionTest, RejectsTruncatedPageTable) {
  Dump(stix_, pristine_.substr(0, pristine_.size() / 2));
  auto index = StixIndex::Open(stix_, stpq_);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(index.status().message().find("truncated stix page table"),
            std::string::npos);
}

TEST_F(StixCorruptionTest, RejectsCountOverflow) {
  ExpectRejected("stix count overflow", [&](std::string* b) {
    StixHeader h = HeaderOf(*b);
    h.record_count = ~uint64_t{0} - 3;  // layout math would wrap
    PutHeader(b, h);
  });
}

TEST_F(StixCorruptionTest, RejectsRecordOffsetsPastEof) {
  ExpectRejected("stix record offsets past EOF", [&](std::string* b) {
    StixHeader h = HeaderOf(*b);
    uint64_t last =
        h.section_off[kStixRecOffsets] + h.record_count * sizeof(uint64_t);
    uint64_t huge = h.source_size + (1 << 20);
    std::memcpy(b->data() + last, &huge, sizeof(huge));
  });
}

TEST_F(StixCorruptionTest, RejectsStaleSidecar) {
  // Rewrite the source with different records: size|mtime no longer match.
  auto other = RandomEvents(500, 99);
  ASSERT_TRUE(WriteStpqFile(stpq_, other).ok());
  auto index = StixIndex::Open(stix_, stpq_);
  ASSERT_FALSE(index.ok());
  EXPECT_NE(index.status().message().find("stale stix sidecar"),
            std::string::npos);
}

TEST_F(StixCorruptionTest, RejectsSameSizeSameMtimeRewriteByFingerprint) {
  // The adversarial rewrite size|mtime alone cannot catch: replace the
  // source with a file of the SAME byte size and restore its mtime. The
  // record count changes (2 fat-attr events -> 3 empty-attr events, equal
  // total bytes), so the stpq-header fingerprint in the staleness key must
  // still flag the sidecar as stale.
  std::string dir = TempDir("fingerprint");
  std::string path = dir + "/part-00000.stpq";
  std::vector<EventRecord> two(2);
  two[0].id = 1;
  two[0].attr = std::string(18, 'a');
  two[1].id = 2;
  two[1].attr = std::string(18, 'b');
  ASSERT_TRUE(WriteIndexedPart(dir, "part-00000.stpq", two,
                               RetryPolicy::None(), nullptr)
                  .ok());
  uint64_t size_before = fs::file_size(path);
  fs::file_time_type mtime_before = fs::last_write_time(path);

  std::vector<EventRecord> three(3);  // empty attrs: 3*36 == 2*36 + 2*18
  three[0].id = 7;
  three[1].id = 8;
  three[2].id = 9;
  ASSERT_TRUE(WriteStpqFile(path, three).ok());
  ASSERT_EQ(fs::file_size(path), size_before);
  fs::last_write_time(path, mtime_before);

  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_FALSE(index.ok())
      << "same-size same-mtime rewrite accepted: the fingerprint is dead";
  EXPECT_NE(index.status().message().find("stale stix sidecar"),
            std::string::npos)
      << index.status().ToString();
}

TEST_F(StixCorruptionTest, MtimeStampOfMissingFileIsAnError) {
  // FileMtimeStamp used to swallow stat failures into a 0 stamp, which made
  // "source vanished" indistinguishable from a real epoch mtime. It must
  // propagate the error.
  auto stamp = FileMtimeStamp(dir_ + "/does-not-exist.stpq");
  ASSERT_FALSE(stamp.ok());
  auto fingerprint = StpqHeaderFingerprint(dir_ + "/does-not-exist.stpq");
  ASSERT_FALSE(fingerprint.ok());
}

TEST_F(StixCorruptionTest, WriteIndexedPartPropagatesUnwritableDir) {
  // The "directory" is the staged part file itself.
  auto part = WriteIndexedPart(stpq_, "part-00001.stpq", events_,
                               RetryPolicy::None(), nullptr);
  ASSERT_FALSE(part.ok());
}

TEST_F(StixCorruptionTest, MissingSidecarIsNotFound) {
  fs::remove(stix_);
  auto index = StixIndex::Open(stix_, stpq_);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kNotFound);
}

/// A corrupt sidecar must DEMOTE the file to a linear scan, not fail or
/// mis-serve the query — and the executed-plan counters must say so.
TEST_F(StixCorruptionTest, SelectorDemotesCorruptSidecarToLinearScan) {
  std::string bytes = pristine_;
  bytes[0] = 'Z';
  Dump(stix_, bytes);

  auto ctx = ExecutionContext::Create(2);
  STBox box(Mbr(0, 0, 100, 100), Duration(0, 100000));
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(box));
  auto selected = selector.Select(dir_);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->Count(), BruteForceBox(events_, box).size());
  auto m = ctx->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPlannerMmapIndex], 0u);
  EXPECT_EQ(m[Counter::kPlannerLinearScan], 1u);
  EXPECT_EQ(m[Counter::kIndexFilesMmapped], 0u);
}

TEST(StixSelectorTest, MmapSelectCountsIndexTraffic) {
  std::string dir = TempDir("counters");
  auto events = RandomEvents(1500, 7);
  std::string path = StagePair(dir, &events);

  auto ctx = ExecutionContext::Create(2);
  STBox box(Mbr(10, 10, 30, 30), Duration(0, 40000));
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(box));
  auto selected = selector.Select(dir);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->Count(), BruteForceBox(events, box).size());

  auto m = ctx->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPlannerMmapIndex], 1u);
  EXPECT_EQ(m[Counter::kPlannerLinearScan], 0u);
  EXPECT_EQ(m[Counter::kIndexFilesMmapped], 1u);
  EXPECT_GT(m[Counter::kIndexPagesRead], 0u);
  // Ranged reads: strictly fewer .stpq bytes than the whole file.
  EXPECT_GT(m[Counter::kStpqBytesRead], 0u);
  EXPECT_LT(m[Counter::kStpqBytesRead], FileSizeBytes(path));
}

TEST(StixSelectorTest, PostingsHitsCountOnIdLookup) {
  std::string dir = TempDir("postings");
  auto events = RandomEvents(800, 13);
  StagePair(dir, &events);

  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(ctx, SelectQuery::FromIds({1, 2, 3, 4, 5}));
  auto selected = selector.Select(dir);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  size_t expected = 0;
  for (const EventRecord& r : events) {
    if (r.id >= 1 && r.id <= 5) ++expected;
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(selected->Count(), expected);
  auto m = ctx->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPostingsHits], expected);
}

/// The records of `selected` as STPQ bytes, in their selected order: equal
/// strings mean byte-identical answers.
std::string AnswerBytes(const Dataset<EventRecord>& selected,
                        const std::string& scratch) {
  ST4ML_CHECK(WriteStpqFile(scratch, selected.Collect()).ok());
  return Slurp(scratch);
}

/// Builds `events` into `dir` through BuildOnDiskIndex with `tiles`^2
/// T-STR parts over one time slice.
void BuildDir(const std::vector<EventRecord>& events, int tiles,
              const std::string& dir) {
  auto ctx = ExecutionContext::Create(2);
  TSTRPartitioner partitioner(1, tiles);
  Status built =
      BuildOnDiskIndex(Dataset<EventRecord>::Parallelize(ctx, events, 4),
                       &partitioner, dir, dir + "/index.meta");
  ST4ML_CHECK(built.ok()) << built.ToString();
}

TEST(StixLayoutTest, OnePercentBoxReadsUnderAQuarterOfThePart) {
  // One 100k-event part: records stored in leaf order make a small box's
  // hits a few contiguous runs, so the mmap plan reads a small share of the
  // file. Records in input order scatter the hits over the whole file.
  std::string dir = TempDir("byte_budget");
  std::vector<EventRecord> events = RandomEvents(100000, 43);
  for (EventRecord& r : events) r.attr.clear();  // 36 B records
  BuildDir(events, 1, dir);
  const std::vector<std::string> parts = ListStpqFiles(dir);
  ASSERT_EQ(parts.size(), 1u);
  const STBox box(Mbr(40, 40, 50, 50), Duration(0, 100000));

  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> indexed(ctx, SelectQuery::FromBox(box));
  auto selected = indexed.Select(dir);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  auto m = ctx->MetricsSnapshot();
  ASSERT_EQ(m[Counter::kPlannerMmapIndex], 1u);
  EXPECT_GT(selected->Count(), 500u);
  EXPECT_LT(selected->Count(), 1500u);
  const uint64_t file_bytes = FileSizeBytes(parts[0]);
  EXPECT_LT(m[Counter::kStpqBytesRead], file_bytes / 4)
      << "read " << m[Counter::kStpqBytesRead] << " of " << file_bytes;

  const testing::SidecarFreeCopy scan(dir);
  auto scan_ctx = ExecutionContext::Create(2);
  Selector<EventRecord> scanned(scan_ctx, SelectQuery::FromBox(box));
  auto reference = scanned.Select(scan.dir());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(AnswerBytes(*selected, dir + "/indexed.out"),
            AnswerBytes(*reference, dir + "/scanned.out"));
}

TEST(StixLayoutTest, VersionTwoSidecarTakesTheScanUntilRebuilt) {
  std::string dir = TempDir("v2");
  BuildDir(RandomEvents(3000, 53), 2, dir);
  const std::string meta = dir + "/index.meta";
  const STBox box(Mbr(5, 5, 70, 60), Duration(0, 80000));
  const testing::SidecarFreeCopy scan(dir);
  auto scan_ctx = ExecutionContext::Create(2);
  Selector<EventRecord> scanned(scan_ctx, SelectQuery::FromBox(box));
  auto reference = scanned.Select(scan.dir(), scan.meta());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = AnswerBytes(*reference, dir + "/ref.out");

  const std::vector<std::string> parts = ListStpqFiles(dir);
  for (const std::string& path : parts) {
    std::string bytes = Slurp(StixPathFor(path));
    StixHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.version = 2;
    std::memcpy(bytes.data(), &h, sizeof(h));
    Dump(StixPathFor(path), bytes);
  }
  auto old_ctx = ExecutionContext::Create(2);
  Selector<EventRecord> old_sidecars(old_ctx, SelectQuery::FromBox(box));
  auto before = old_sidecars.Select(dir, meta);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto m = old_ctx->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPlannerLinearScan], parts.size());
  EXPECT_EQ(m[Counter::kPlannerMmapIndex], 0u);
  EXPECT_EQ(AnswerBytes(*before, dir + "/before.out"), expected);

  for (const std::string& path : parts) {
    const std::string data_before = Slurp(path);
    auto rebuilt = RebuildIndexedPart(path);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    // Already in leaf order: the rewrite keeps every byte.
    EXPECT_EQ(Slurp(path), data_before);
  }
  auto new_ctx = ExecutionContext::Create(2);
  Selector<EventRecord> rebuilt(new_ctx, SelectQuery::FromBox(box));
  auto after = rebuilt.Select(dir, meta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  m = new_ctx->MetricsSnapshot();
  EXPECT_EQ(m[Counter::kPlannerMmapIndex], parts.size());
  EXPECT_EQ(m[Counter::kPlannerLinearScan], 0u);
  EXPECT_EQ(AnswerBytes(*after, dir + "/after.out"), expected);
}

TEST(StixLayoutTest, RebuildPutsAnUnorderedPartInLeafOrder) {
  std::string dir = TempDir("rebuild_order");
  std::vector<EventRecord> events = RandomEvents(2000, 61);
  const std::string path = dir + "/part-00000.stpq";
  ASSERT_TRUE(WriteStpqFile(path, events).ok());  // input order, no sidecar
  auto rebuilt = RebuildIndexedPart(path);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, events.size());
  auto stored = ReadStpqFile<EventRecord>(path);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  std::vector<STBox> boxes;
  for (const EventRecord& r : *stored) boxes.push_back(r.ComputeSTBox());
  const std::vector<uint32_t> order = StrOrder(boxes);
  for (uint32_t j = 0; j < order.size(); ++j) ASSERT_EQ(order[j], j);
  const STBox box(Mbr(20, 20, 45, 45), Duration(0, 100000));
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::vector<uint32_t> hits;
  index->QueryBox(accel::BoxFilterQuery::FromBox(box), &hits, nullptr);
  EXPECT_EQ(hits, BruteForceBox(*stored, box));
}

/// A cached load takes the sidecar's postings as its id directory only if
/// they are one: a forged section falls back to the sort, and id lookups
/// answer as the scan does.
class StixForgedPostingsTest : public ::testing::TestWithParam<bool> {};

TEST_P(StixForgedPostingsTest, CachedLoadFallsBackToTheSort) {
  const bool duplicate = GetParam();
  std::string dir = TempDir(duplicate ? "forged_dup" : "forged_swap");
  std::vector<EventRecord> events = RandomEvents(600, 71);
  const std::string path = StagePair(dir, &events);
  const std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  StixHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  char* postings = bytes.data() + h.section_off[kStixPostings];
  if (duplicate) {
    std::memcpy(postings + sizeof(uint32_t), postings, sizeof(uint32_t));
  } else {
    // The last posting of the lowest id swaps with the first of the next:
    // each id's run now holds a record of the other id.
    StixIdEntry first;
    std::memcpy(&first, bytes.data() + h.section_off[kStixIdDir],
                sizeof(first));
    char* last = postings + (first.count - 1) * sizeof(uint32_t);
    std::swap_ranges(last, last + sizeof(uint32_t), last + sizeof(uint32_t));
  }
  Dump(stix, bytes);
  auto identity = ReadStpqIdentity(path);
  ASSERT_TRUE(identity.ok()) << identity.status().ToString();
  auto forged = ReadStixPostings(stix, *identity);
  ASSERT_TRUE(forged.ok()) << forged.status().ToString();
  EXPECT_FALSE(selection_internal::IsIdDirectory(*forged, events));

  std::vector<int64_t> ids;
  for (const EventRecord& r : events) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const testing::SidecarFreeCopy scan(dir);
  auto scan_ctx = ExecutionContext::Create(2);
  Selector<EventRecord> scanned(scan_ctx, SelectQuery::FromIds(ids));
  auto reference = scanned.Select(scan.dir());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->Count(), events.size());

  auto ctx = ExecutionContext::Create(2);
  DatasetCache::Options cache_options;
  cache_options.budget_bytes = DatasetCache::kUnbounded;
  ctx->ConfigureCache(cache_options);
  for (int pass = 0; pass < 2; ++pass) {  // the load, then a resident hit
    Selector<EventRecord> cached(ctx, SelectQuery::FromIds(ids));
    auto selected = cached.Select(dir);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    EXPECT_EQ(AnswerBytes(*selected, dir + "/cached.out"),
              AnswerBytes(*reference, dir + "/scanned.out"))
        << "pass " << pass;
  }
  EXPECT_EQ(ctx->MetricsSnapshot()[Counter::kPlannerCachedIndex], 2u);
}

INSTANTIATE_TEST_SUITE_P(DuplicateOrSwap, StixForgedPostingsTest,
                         ::testing::Bool());

TEST(StixLayoutTest, CachedLoadTakesCheckedPostingsAsTheIdDirectory) {
  std::string dir = TempDir("postings_dir");
  std::vector<EventRecord> events = RandomEvents(800, 73);
  const std::string path = StagePair(dir, &events);
  auto identity = ReadStpqIdentity(path);
  ASSERT_TRUE(identity.ok()) << identity.status().ToString();
  auto postings = ReadStixPostings(StixPathFor(path), *identity);
  ASSERT_TRUE(postings.ok()) << postings.status().ToString();
  ASSERT_TRUE(selection_internal::IsIdDirectory(*postings, events));
  // Stored in leaf order, the records are not in id order: without the
  // sidecar the load would sort.
  auto file = selection_internal::MakeIndexedFile(events, *postings);
  std::vector<uint32_t> sorted(events.size());
  std::iota(sorted.begin(), sorted.end(), 0u);
  EXPECT_FALSE(std::is_sorted(
      sorted.begin(), sorted.end(),
      selection_internal::ByIdThenPosition(events)));
  std::sort(sorted.begin(), sorted.end(),
            selection_internal::ByIdThenPosition(events));
  EXPECT_EQ(file->by_id, sorted);
  EXPECT_EQ(selection_internal::MakeIndexedFile(events, {})->by_id, sorted);
}

TEST(StixSelectorTest, MmapPlanChecksTheRecordsThePostingsName) {
  // The lowest id's last posting swapped with the next id's first: the
  // postings stay a permutation, so the sidecar passes Open's audit, but
  // they name a record of the next id for the lowest. The mmap plan must
  // answer exactly what the scan over a sidecar-free copy answers, and say
  // the file was served by the scan.
  const std::string dir = TempDir("lying_postings");
  std::vector<EventRecord> events = RandomEvents(600, 61);
  const std::string path = StagePair(dir, &events);
  const std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  StixHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  StixIdEntry lowest;
  StixIdEntry next;
  std::memcpy(&lowest, bytes.data() + h.section_off[kStixIdDir],
              sizeof(lowest));
  std::memcpy(&next,
              bytes.data() + h.section_off[kStixIdDir] + sizeof(lowest),
              sizeof(next));
  ASSERT_EQ(lowest.id, 0);
  ASSERT_LT(lowest.id, next.id);
  const uint64_t postings = h.section_off[kStixPostings];
  std::swap_ranges(
      bytes.begin() + static_cast<std::ptrdiff_t>(
                          postings + (lowest.first + lowest.count - 1) * 4),
      bytes.begin() + static_cast<std::ptrdiff_t>(
                          postings + lowest.first * 4 + lowest.count * 4),
      bytes.begin() + static_cast<std::ptrdiff_t>(postings + next.first * 4));
  Dump(stix, bytes);
  ASSERT_TRUE(StixIndex::Open(stix, path).ok());

  const testing::SidecarFreeCopy scan(dir);
  auto select = [](const std::string& from, MetricsSnapshot* metrics) {
    auto ctx = ExecutionContext::Create(2);
    Selector<EventRecord> selector(ctx, SelectQuery::FromIds({0}));
    auto selected = selector.Select(from);
    ST4ML_CHECK(selected.ok()) << selected.status().ToString();
    *metrics = ctx->MetricsSnapshot();
    return *selected;
  };
  MetricsSnapshot lied;
  MetricsSnapshot scanned;
  const Dataset<EventRecord> answer = select(dir, &lied);
  const Dataset<EventRecord> expected = select(scan.dir(), &scanned);
  EXPECT_EQ(answer.Count(), lowest.count);
  for (const EventRecord& r : answer.Collect()) EXPECT_EQ(r.id, 0);
  EXPECT_EQ(AnswerBytes(answer, dir + "/answer.bin"),
            AnswerBytes(expected, dir + "/expected.bin"));
  EXPECT_EQ(lied[Counter::kPlannerLinearScan], 1u);
  EXPECT_EQ(lied[Counter::kPlannerMmapIndex], 0u);
  EXPECT_EQ(scanned[Counter::kPlannerLinearScan], 1u);
}

}  // namespace
}  // namespace st4ml
