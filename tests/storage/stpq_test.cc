#include "storage/stpq.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/execution_context.h"
#include "ingest/wal.h"
#include "partition/str_partitioner.h"
#include "pipeline/session.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/inline_string.h"

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

/// `n` bytes that differ from position to position.
std::string Bytes(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 26);
  return s;
}

/// Attributes at the inline capacity's edges, a long one, and one with an
/// embedded NUL.
std::vector<std::string> EdgeAttrs() {
  return {Bytes(0), Bytes(InlineString::kInlineCapacity),
          Bytes(InlineString::kInlineCapacity + 1), Bytes(1000),
          std::string("nul\0inside", 10)};
}

/// One event per EdgeAttrs() value, ids 0.., inside [0,10]^2 x [0,100].
std::vector<EventRecord> EdgeEvents() {
  std::vector<EventRecord> events;
  for (const std::string& attr : EdgeAttrs()) {
    EventRecord r;
    r.id = static_cast<int64_t>(events.size());
    r.x = 1.0 + static_cast<double>(r.id);
    r.y = 2.0;
    r.time = 10 * r.id;
    r.attr = attr;
    events.push_back(r);
  }
  return events;
}

void ExpectSameEvents(const std::vector<EventRecord>& got,
                      const std::vector<EventRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].x, want[i].x);
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].attr, want[i].attr) << "record " << i;
    EXPECT_EQ(got[i].attr.size(), want[i].attr.size()) << "record " << i;
  }
}

TEST(InlineStringTest, HoldsEveryLengthAndEmbeddedNuls) {
  static_assert(sizeof(InlineString) == 32);
  static_assert(sizeof(EventRecord) == 64);
  for (const std::string& value : EdgeAttrs()) {
    SCOPED_TRACE(testing::Message() << "length " << value.size());
    const InlineString s(value);
    EXPECT_EQ(s.size(), value.size());
    EXPECT_EQ(s.empty(), value.empty());
    EXPECT_EQ(std::string_view(s), value);
    EXPECT_EQ(std::memcmp(s.data(), value.data(), value.size()), 0);
    EXPECT_EQ(s.c_str()[value.size()], '\0');
    EXPECT_EQ(s.is_heap(), value.size() > InlineString::kInlineCapacity);
  }
  const InlineString nul(std::string("a\0b", 3));
  EXPECT_EQ(nul.size(), 3u);
  EXPECT_EQ(std::strlen(nul.c_str()), 1u);
  EXPECT_NE(nul, InlineString("a"));
  EXPECT_LT(InlineString("a"), nul);
  EXPECT_EQ(InlineString("12.5").c_str(), std::string_view("12.5"));
  InlineString cleared(Bytes(1000));
  cleared.clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(cleared.c_str()[0], '\0');
}

TEST(InlineStringTest, CopiesMovesAndSelfAssignmentKeepTheValue) {
  for (const std::string& value : EdgeAttrs()) {
    SCOPED_TRACE(testing::Message() << "length " << value.size());
    InlineString source(value);
    InlineString copy(source);
    EXPECT_EQ(copy, source);
    if (source.size() > 0) {
      EXPECT_NE(copy.data(), source.data());
    }

    const char* block = source.data();
    InlineString moved(std::move(source));
    EXPECT_EQ(moved.view(), value);
    // A long value's block is stolen; a moved-from string is empty.
    if (moved.is_heap()) {
      EXPECT_EQ(moved.data(), block);
    }
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.c_str()[0], '\0');
    source = "reused";
    EXPECT_EQ(source.view(), "reused");

    InlineString& alias = moved;
    moved = alias;
    EXPECT_EQ(moved.view(), value);
    moved = std::move(alias);
    EXPECT_EQ(moved.view(), value);
    if (!value.empty()) {  // assigning from its own bytes
      moved.assign(moved.data() + 1, moved.size() - 1);
      EXPECT_EQ(moved.view(), value.substr(1));
    }

    // Assignment across the inline/heap boundary, both ways.
    for (const std::string& other : EdgeAttrs()) {
      InlineString target(other);
      target = copy;
      EXPECT_EQ(target, copy);
      InlineString taken(other);
      taken = InlineString(value);
      EXPECT_EQ(taken.view(), value);
    }
  }
}

TEST(InlineStringTest, RoundTripsThroughTheStpqCodec) {
  const std::string dir = TempDir("inline_codec");
  const std::vector<EventRecord> events = EdgeEvents();
  ASSERT_TRUE(WriteStpqFile(dir + "/e.stpq", events).ok());
  uint64_t bytes = 0;
  for (const EventRecord& r : events) bytes += StpqRecordBytes(r);
  EXPECT_EQ(FileSizeBytes(dir + "/e.stpq"), bytes + kStpqHeaderBytes);
  auto loaded = ReadStpqFile<EventRecord>(dir + "/e.stpq");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameEvents(*loaded, events);
}

TEST(InlineStringTest, RoundTripsThroughAWalSegment) {
  const std::string dir = TempDir("inline_wal");
  const std::vector<EventRecord> events = EdgeEvents();
  auto writer = WalWriter::Create(dir + "/seg-000001.stwal");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::string frames;
  for (const EventRecord& r : events) AppendWalFrame(&frames, r);
  ASSERT_TRUE(writer->AppendFrames(frames, events.size()).ok());
  ASSERT_TRUE(writer->Seal().ok());
  auto read = ReadWalSegment(dir + "/seg-000001.stwal");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  ExpectSameEvents(read->records, events);
}

TEST(InlineStringTest, RoundTripsThroughACacheEvictionAndReload) {
  // Two files, a budget that holds one: every Select evicts one and
  // reloads the other, and each answer is the files' records.
  const std::string dir = TempDir("inline_cache");
  const std::vector<EventRecord> events = EdgeEvents();
  const std::vector<EventRecord> first(events.begin(), events.begin() + 3);
  const std::vector<EventRecord> second(events.begin() + 3, events.end());
  ASSERT_TRUE(WriteStpqFile(dir + "/part-00000.stpq", first).ok());
  ASSERT_TRUE(WriteStpqFile(dir + "/part-00001.stpq", second).ok());
  auto ctx = ExecutionContext::Create(1);
  DatasetCache::Options cache;
  cache.budget_bytes = std::max(FileSizeBytes(dir + "/part-00000.stpq"),
                                FileSizeBytes(dir + "/part-00001.stpq"));
  ctx->ConfigureCache(cache);
  const STBox box(Mbr(0, 0, 10, 10), Duration(0, 100));
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE(testing::Message() << "pass " << pass);
    Selector<EventRecord> selector(ctx, SelectQuery::FromBox(box));
    auto selected = selector.Select(dir);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    ExpectSameEvents(selected->Collect(), events);
  }
  const MetricsSnapshot m = ctx->MetricsSnapshot();
  EXPECT_GT(m[Counter::kCacheEvictions], 0u);
  EXPECT_GT(m[Counter::kCacheReloadBytes], 0u);
}

TEST(InlineStringTest, RoundTripsThroughAServerSelectRow) {
  const std::string dir = TempDir("inline_server");
  const std::vector<EventRecord> events = EdgeEvents();
  ToolOptions options;
  options.num_workers = 2;
  TSTRPartitioner partitioner(1, 1);
  ASSERT_TRUE(BuildOnDiskIndex(Dataset<EventRecord>::Parallelize(
                                   ExecutionContext::Create(1), events, 1),
                               &partitioner, dir, dir + "/index.meta")
                  .ok());
  Session session(options);
  server::Server daemon(&session, server::ServerOptions{});
  ASSERT_TRUE(daemon.Start().ok());
  auto client = server::Client::Connect(daemon.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client->Call(R"({"verb":"select","dir":")" + dir +
                               R"(","mbr":[0,0,10,10],"time":[0,100]})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = server::ParseJson(*response);
  ASSERT_TRUE(parsed.ok()) << *response;
  const server::JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr) << *response;
  ASSERT_EQ(rows->array.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(rows->array[i].GetInt("id", -1), events[i].id);
    EXPECT_EQ(rows->array[i].GetString("attr", "?"),
              std::string(events[i].attr))
        << "row " << i;
  }
  client->Close();
  daemon.Shutdown();
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
