#include "index/stix.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "engine/execution_context.h"
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

/// Stages one .stpq + .stix pair and returns the .stpq path.
std::string StagePair(const std::string& dir,
                      const std::vector<EventRecord>& events) {
  std::string path = dir + "/part-00000.stpq";
  Status wrote = WriteStpqFile(path, events);
  ST4ML_CHECK(wrote.ok()) << wrote.ToString();
  Status built = BuildStixForStpq(path, events);
  ST4ML_CHECK(built.ok()) << built.ToString();
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
  std::string path = StagePair(dir, events);
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
    EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
    EXPECT_GT(stats.pages_read, 0u);  // at least the root's page
  }
}

TEST(StixTest, LookupIdsMatchesBruteForce) {
  std::string dir = TempDir("lookup");
  auto events = RandomEvents(900, 23);
  std::string path = StagePair(dir, events);
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
  std::string path = StagePair(dir, none);
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
  std::string path = dir + "/part-00000.stpq";
  ASSERT_TRUE(WriteStpqFile(path, trajs).ok());
  ASSERT_TRUE(BuildStixForStpq(path, trajs).ok());
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
    stpq_ = StagePair(dir_, events_);
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

TEST_F(StixCorruptionTest, RejectsOrderPermutationBreak) {
  ExpectRejected("stix order is not a permutation", [&](std::string* b) {
    StixHeader h = HeaderOf(*b);
    uint32_t dup = 0;
    std::memcpy(b->data() + h.section_off[kStixOrder] + sizeof(uint32_t),
                &dup, sizeof(dup));
    std::memcpy(b->data() + h.section_off[kStixOrder], &dup, sizeof(dup));
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
  ASSERT_TRUE(WriteStpqFile(path, two).ok());
  ASSERT_TRUE(BuildStixForStpq(path, two).ok());
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

TEST_F(StixCorruptionTest, BuildStixPropagatesUnreadableSource) {
  Status built =
      BuildStixForStpq(dir_ + "/missing-source.stpq", events_);
  ASSERT_FALSE(built.ok());
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
  std::string path = StagePair(dir, events);

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
  StagePair(dir, events);

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

}  // namespace
}  // namespace st4ml
