#include "storage/stpq.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_stpq_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> RandomEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = rng.Uniform(-180, 180);
    r.y = rng.Uniform(-90, 90);
    r.time = rng.UniformInt(0, 1 << 30);
    r.attr = std::string(static_cast<size_t>(rng.UniformInt(0, 20)), 'a');
    events.push_back(r);
  }
  return events;
}

std::vector<TrajRecord> RandomTrajs(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TrajRecord> trajs;
  for (int i = 0; i < n; ++i) {
    TrajRecord t;
    t.id = i;
    int points = static_cast<int>(rng.UniformInt(1, 30));
    for (int k = 0; k < points; ++k) {
      TrajPointRecord p;
      p.x = rng.Uniform(0, 10);
      p.y = rng.Uniform(0, 10);
      p.time = 1000 + k * 15;
      t.points.push_back(p);
    }
    trajs.push_back(t);
  }
  return trajs;
}

TEST(StpqTest, EventRoundTrip) {
  std::string dir = TempDir("events");
  auto events = RandomEvents(100, 1);
  ASSERT_TRUE(WriteStpqFile(dir + "/e.stpq", events).ok());
  auto loaded = ReadStpqFile<EventRecord>(dir + "/e.stpq");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, events[i].id);
    EXPECT_DOUBLE_EQ((*loaded)[i].x, events[i].x);
    EXPECT_DOUBLE_EQ((*loaded)[i].y, events[i].y);
    EXPECT_EQ((*loaded)[i].time, events[i].time);
    EXPECT_EQ((*loaded)[i].attr, events[i].attr);
  }
}

TEST(StpqTest, TrajRoundTrip) {
  std::string dir = TempDir("trajs");
  auto trajs = RandomTrajs(40, 2);
  ASSERT_TRUE(WriteStpqFile(dir + "/t.stpq", trajs).ok());
  auto loaded = ReadStpqFile<TrajRecord>(dir + "/t.stpq");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) {
    ASSERT_EQ((*loaded)[i].points.size(), trajs[i].points.size());
    EXPECT_DOUBLE_EQ((*loaded)[i].points.back().x, trajs[i].points.back().x);
    EXPECT_EQ((*loaded)[i].points.back().time, trajs[i].points.back().time);
  }
}

TEST(StpqTest, EmptyFileRoundTrip) {
  std::string dir = TempDir("zero");
  ASSERT_TRUE(WriteStpqFile(dir + "/z.stpq", std::vector<EventRecord>{}).ok());
  auto loaded = ReadStpqFile<EventRecord>(dir + "/z.stpq");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(StpqTest, RecordBytesMatchesOnDiskGrowth) {
  std::string dir = TempDir("bytes");
  auto events = RandomEvents(50, 3);
  ASSERT_TRUE(WriteStpqFile(dir + "/b.stpq", events).ok());
  uint64_t expected = 0;
  for (const auto& r : events) expected += StpqRecordBytes(r);
  uint64_t file_size = FileSizeBytes(dir + "/b.stpq");
  // header: magic + kind + count
  EXPECT_EQ(file_size, expected + 5 + 1 + 8);
}

TEST(StpqTest, ListStpqFilesIsSortedAndFiltered) {
  std::string dir = TempDir("list");
  ASSERT_TRUE(
      WriteStpqFile(dir + "/part-00002.stpq", RandomEvents(1, 4)).ok());
  ASSERT_TRUE(
      WriteStpqFile(dir + "/part-00000.stpq", RandomEvents(1, 5)).ok());
  std::ofstream(dir + "/notes.txt") << "ignore me";
  auto files = ListStpqFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("part-00000"), std::string::npos);
  EXPECT_NE(files[1].find("part-00002"), std::string::npos);
}

TEST(StpqTest, MetaRoundTrip) {
  std::string dir = TempDir("meta");
  StpqManifest meta;
  meta.generation = 7;
  meta.parts.resize(2);
  meta.parts[0].file = "part-00000.stpq";
  meta.parts[0].box = STBox(Mbr(-1.5, 2.25, 3.75, 8.0), Duration(100, 900));
  meta.parts[0].count = 42;
  meta.parts[1].file = "part-00001.stpq";
  meta.parts[1].box = STBox();  // empty partition: inverted envelope
  meta.parts[1].count = 0;
  meta.consumed = {"s00000001-b0.stwal", "s00000002-b1.stwal"};
  ASSERT_TRUE(WriteStpqMeta(dir + "/idx.meta", meta).ok());
  auto loaded = ReadStpqMeta(dir + "/idx.meta");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 7u);
  EXPECT_EQ(loaded->consumed, meta.consumed);
  ASSERT_EQ(loaded->parts.size(), 2u);
  EXPECT_EQ(loaded->parts[0].file, "part-00000.stpq");
  EXPECT_DOUBLE_EQ(loaded->parts[0].box.mbr.x_min, -1.5);
  EXPECT_EQ(loaded->parts[0].box.time.end(), 900);
  EXPECT_EQ(loaded->parts[0].count, 42u);
  // The empty partition's envelope must still never match anything.
  STBox everything(Mbr(-1e9, -1e9, 1e9, 1e9),
                   Duration(-(int64_t{1} << 40), int64_t{1} << 40));
  EXPECT_FALSE(loaded->parts[1].box.Intersects(everything));
}

TEST(StpqTest, MetaRoundTripsInfiniteAndNanBounds) {
  std::string dir = TempDir("metainf");
  const double inf = std::numeric_limits<double>::infinity();
  StpqManifest meta;
  meta.parts.resize(1);
  meta.parts[0].file = "part-00000.stpq";
  meta.parts[0].box = STBox(Mbr(-inf, std::nan(""), inf, 1.0),
                            Duration(INT64_MIN, INT64_MAX));
  meta.parts[0].count = UINT64_MAX;
  ASSERT_TRUE(WriteStpqMeta(dir + "/idx.meta", meta).ok());
  auto loaded = ReadStpqMeta(dir + "/idx.meta");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const STBox& box = loaded->parts[0].box;
  EXPECT_EQ(box.mbr.x_min, -inf);
  EXPECT_TRUE(std::isnan(box.mbr.y_min));
  EXPECT_EQ(box.mbr.x_max, inf);
  EXPECT_EQ(box.time.start(), INT64_MIN);
  EXPECT_EQ(box.time.end(), INT64_MAX);
  EXPECT_EQ(loaded->parts[0].count, UINT64_MAX);
}

TEST(StpqTest, ReaderIdentityEqualsThePathBasedStamps) {
  // The reader stamps its identity from fstat on its open descriptor; a
  // `.stix` sidecar may have been keyed from the path. Both must agree, to
  // the nanosecond, or every sidecar would read as stale.
  std::string dir = TempDir("identity");
  std::string path = dir + "/part.stpq";
  ASSERT_TRUE(WriteStpqFile(path, RandomEvents(30, 4)).ok());
  const auto stamp = std::chrono::time_point_cast<fs::file_time_type::duration>(
      fs::file_time_type::clock::now() - std::chrono::hours(3) +
      std::chrono::nanoseconds(123456789));
  fs::last_write_time(path, stamp);

  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto mtime = FileMtimeStamp(path);
  ASSERT_TRUE(mtime.ok());
  EXPECT_EQ(reader->identity().mtime_stamp, *mtime);
  EXPECT_EQ(*mtime, static_cast<int64_t>(stamp.time_since_epoch().count()));
  EXPECT_EQ(reader->identity().size, FileSizeBytes(path));
  auto fingerprint = StpqHeaderFingerprint(path);
  ASSERT_TRUE(fingerprint.ok());
  EXPECT_EQ(reader->identity().header_fingerprint, *fingerprint);
  auto identity = ReadStpqIdentity(path);
  ASSERT_TRUE(identity.ok());
  EXPECT_TRUE(*identity == reader->identity());
}

}  // namespace
}  // namespace st4ml
