// Crash-safe streaming ingestion (DESIGN.md §13): WAL framing round trips,
// torn tails, injected faults at wal/append, wal/seal and ingest/compact,
// reopen-and-replay exactly the acked records, exactly-once across the
// compaction boundary, the merged view mid-stream, and index.meta as the
// one part list of batch-built and streamed directories alike.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "engine/execution_context.h"
#include "ingest/ingestor.h"
#include "ingest/wal.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"
#include "storage/records.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("st4ml_ingest_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    GlobalFaultInjector().Reset();
  }

  void TearDown() override {
    GlobalFaultInjector().Reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

EventRecord MakeEvent(int64_t id, int64_t time, const std::string& attr = "") {
  EventRecord r;
  r.id = id;
  r.x = static_cast<double>(id) * 0.5;
  r.y = static_cast<double>(id) * -0.25;
  r.time = time;
  r.attr = attr;
  return r;
}

// Everything ever ingested, via the merged staged+compacted read path.
std::vector<EventRecord> SelectAll(const std::string& dir) {
  auto ctx = ExecutionContext::Create(2);
  SelectQuery query = SelectQuery::FromBox(
      STBox(Mbr(-1e9, -1e9, 1e9, 1e9), Duration(-1000000000, 1000000000)));
  Selector<EventRecord> selector(ctx, query);
  auto selected = selector.SelectIngest(dir);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return selected->Collect();
}

// Frames `records` into `writer` in one write, as AppendBatch does for one
// bucket.
Status WriteFrames(WalWriter& writer, const std::vector<EventRecord>& records) {
  std::string frames;
  for (const EventRecord& r : records) AppendWalFrame(&frames, r);
  return writer.AppendFrames(frames, records.size());
}

// Flips one byte of the file at `path`, `offset` bytes from its start.
void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  char c = 0;
  f.seekg(offset);
  f.read(&c, 1);
  c ^= 0x5A;
  f.seekp(offset);
  f.write(&c, 1);
}

std::multiset<int64_t> Ids(const std::vector<EventRecord>& records) {
  std::multiset<int64_t> ids;
  for (const EventRecord& r : records) ids.insert(r.id);
  return ids;
}

// ---------------------------------------------------------------- WAL layer

TEST_F(IngestTest, WalRoundTripSealedStrict) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<EventRecord> in = {
      MakeEvent(1, 10, ""), MakeEvent(2, 20, "attr=a"),
      MakeEvent(3, 30, std::string(500, 'x')),
      MakeEvent(-4, -30, "quotes\"and,commas")};
  ASSERT_TRUE(WriteFrames(*writer, in).ok());
  ASSERT_TRUE(fs::exists(path + ".open"));
  ASSERT_FALSE(fs::exists(path));
  ASSERT_TRUE(writer->Seal().ok());
  ASSERT_TRUE(fs::exists(path));
  ASSERT_FALSE(fs::exists(path + ".open"));

  auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->good_bytes, fs::file_size(path));
  ASSERT_EQ(read->records.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(read->records[i].id, in[i].id);
    EXPECT_EQ(read->records[i].x, in[i].x);
    EXPECT_EQ(read->records[i].y, in[i].y);
    EXPECT_EQ(read->records[i].time, in[i].time);
    EXPECT_EQ(read->records[i].attr, in[i].attr);
  }
}

// The file name picks the read mode: the same torn bytes are a tolerated
// tail under the `.open` name and Corruption under the sealed one.
TEST_F(IngestTest, WalTornTailTolerantVsStrict) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteFrames(*writer, {MakeEvent(i, i)}).ok());
  }
  writer->Abandon();  // crash: no fsync, no rename — segment stays .open

  std::string open_path = path + ".open";
  uint64_t full = fs::file_size(open_path);
  fs::resize_file(open_path, full - 5);  // tear the last frame

  auto tolerant = ReadWalSegment(open_path);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_TRUE(tolerant->torn_tail);
  ASSERT_EQ(tolerant->records.size(), 2u);
  EXPECT_EQ(tolerant->records[0].id, 0);
  EXPECT_EQ(tolerant->records[1].id, 1);
  EXPECT_LT(tolerant->good_bytes, full - 5);

  fs::copy_file(open_path, path);
  auto strict = ReadWalSegment(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption);
}

// A merged Select lists `.open` segments, then reads them; a Seal in between
// renames the file away. The read falls back to the sealed name once, and
// reads it as sealed: strictly.
TEST_F(IngestTest, ListedOpenSegmentSealedBeforeReadIsReadUnderSealedName) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteFrames(*writer, {MakeEvent(i, i)}).ok());
  }
  const std::string listed = writer->open_path();
  ASSERT_TRUE(writer->Seal().ok());
  ASSERT_FALSE(fs::exists(listed));

  auto read = ReadWalSegment(listed);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->good_bytes, fs::file_size(path));
  ASSERT_EQ(read->records.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(read->records[i].id, i);

  // The fallback read is strict: a bad frame under the sealed name is
  // Corruption, not a torn tail.
  FlipByte(path, static_cast<int64_t>(fs::file_size(path)) - 3);
  auto corrupt = ReadWalSegment(listed);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), Status::Code::kCorruption);

  // With the sealed name gone too, both names are NotFound.
  fs::remove(path);
  for (const std::string& name : {listed, path}) {
    auto gone = ReadWalSegment(name);
    ASSERT_FALSE(gone.ok()) << name;
    EXPECT_EQ(gone.status().code(), Status::Code::kNotFound) << name;
  }
}

// A directory listing that caught a seal mid-rename may report one segment
// under both names; its records are selected once, not twice.
TEST_F(IngestTest, SegmentListedUnderBothNamesIsSelectedOnce) {
  fs::create_directories(dir_ + "/wal");
  std::string path = dir_ + "/wal/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(WriteFrames(*writer, {MakeEvent(0, 0), MakeEvent(1, 1),
                                    MakeEvent(2, 2), MakeEvent(3, 3)})
                  .ok());
  writer->Abandon();
  fs::copy_file(path + ".open", path);
  ASSERT_EQ(ListWalSegments(dir_ + "/wal").size(), 2u);
  EXPECT_EQ(Ids(SelectAll(dir_)), (std::multiset<int64_t>{0, 1, 2, 3}));
}

TEST_F(IngestTest, WalCrcFlipIsCorruptionWhenSealed) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(WriteFrames(*writer, {MakeEvent(0, 0), MakeEvent(1, 1)}).ok());
  ASSERT_TRUE(writer->Seal().ok());

  // Flip one payload byte of the SECOND frame.
  FlipByte(path, static_cast<int64_t>(fs::file_size(path)) - 3);
  auto strict = ReadWalSegment(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption);

  // The same bytes as an active tail: the read stops at the bad frame.
  fs::copy_file(path, path + ".open");
  auto tolerant = ReadWalSegment(path + ".open");
  ASSERT_TRUE(tolerant.ok());
  EXPECT_TRUE(tolerant->torn_tail);
  EXPECT_EQ(tolerant->records.size(), 1u);
}

// A frame whose CRC matches must hold exactly one record: a payload with a
// byte to spare, or one its attr length overruns, is Corruption under
// either name — never a record with the spare byte dropped.
TEST_F(IngestTest, WalFrameMustDecodeToExactlyItsPayload) {
  const EventRecord r = MakeEvent(5, 5, "abc");
  std::string payload;
  EncodeStpqRecord(r, &payload);
  std::string overrun = payload;
  const uint32_t too_long = 4;  // the attr length word sits just before attr
  std::memcpy(overrun.data() + overrun.size() - 3 - sizeof(too_long),
              &too_long, sizeof(too_long));
  for (const std::string& bad : {payload + "!", overrun}) {
    std::string frame;
    const uint32_t words[2] = {static_cast<uint32_t>(bad.size()),
                               WalCrc32(bad.data(), bad.size())};
    frame.append(reinterpret_cast<const char*>(words), sizeof(words));
    frame += bad;
    const std::string path = dir_ + "/s00000000-b0.stwal";
    auto writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendFrames(frame, 1).ok());
    writer->Abandon();
    fs::copy_file(path + ".open", path, fs::copy_options::overwrite_existing);
    for (const std::string& name : {path, path + ".open"}) {
      auto read = ReadWalSegment(name);
      ASSERT_FALSE(read.ok()) << name;
      EXPECT_EQ(read.status().code(), Status::Code::kCorruption) << name;
    }
  }
}

TEST_F(IngestTest, WalImplausibleLengthWordIsTornNotHugeAlloc) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(WriteFrames(*writer, {MakeEvent(7, 7)}).ok());
  writer->Abandon();
  // Append a garbage frame whose length word claims 4 GB.
  {
    std::ofstream f(path + ".open", std::ios::app | std::ios::binary);
    uint32_t huge = 0xFFFFFFF0u;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
    f.write("garbage", 7);
  }
  auto tolerant = ReadWalSegment(path + ".open");
  ASSERT_TRUE(tolerant.ok());
  EXPECT_TRUE(tolerant->torn_tail);
  EXPECT_EQ(tolerant->records.size(), 1u);
}

// ------------------------------------------------------- crash and recovery

IngestorOptions ScriptedOptions() {
  IngestorOptions options;
  options.bucket_seconds = 100;
  options.seal_records = 4;
  options.start_compactor = false;  // tests drive CompactNow themselves
  return options;
}

TEST_F(IngestTest, CrashBeforeFlushReplaysExactlyAckedRecords) {
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i * 37)}).ok());
    }
    // Destructor drops writers without sealing — the crash.
  }
  auto ctx = ExecutionContext::Create(2);
  auto reopened = Ingestor::Open(dir_, ScriptedOptions(), ctx.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 10u);
  EXPECT_EQ((*reopened)->Stats().staged, 10u);
  EXPECT_EQ(ctx->MetricsSnapshot()[Counter::kWalReplayedRecords], 10u);

  std::multiset<int64_t> expected;
  for (int i = 0; i < 10; ++i) expected.insert(i);
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

TEST_F(IngestTest, ReplayIsIdempotentAcrossRepeatedCrashes) {
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i)}).ok());
    }
  }
  for (int round = 0; round < 3; ++round) {
    auto reopened = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ((*reopened)->Stats().staged, 6u) << "round " << round;
    // Crash again without flushing: replay must not duplicate or lose.
  }
  EXPECT_EQ(SelectAll(dir_).size(), 6u);
}

TEST_F(IngestTest, FaultedAppendIsNeverAckedAndNeverReplayed) {
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(1, 10)}).ok());
    GlobalFaultInjector().FailNext(fault_site::kWalAppend, 1);
    Status failed = (*ingestor)->AppendBatch({MakeEvent(2, 20)});
    ASSERT_FALSE(failed.ok());  // never acked
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(3, 30)}).ok());
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Stats().replayed, 2u);
  std::multiset<int64_t> expected = {1, 3};
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

TEST_F(IngestTest, SealFaultLeavesSegmentOpenAndFlushRetrySucceeds) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i)}).ok());
  }
  GlobalFaultInjector().FailNext(fault_site::kWalSeal, 1);
  Status flushed = (*ingestor)->Flush();
  ASSERT_FALSE(flushed.ok());  // the seal failed; records stay staged
  EXPECT_EQ((*ingestor)->Stats().staged, 3u);
  EXPECT_EQ(Ids(SelectAll(dir_)).size(), 3u);  // still served from the WAL

  ASSERT_TRUE((*ingestor)->Flush().ok());  // retry with the fault disarmed
  IngestorStats stats = (*ingestor)->Stats();
  EXPECT_EQ(stats.staged, 0u);
  EXPECT_EQ(stats.compacted, 3u);
  EXPECT_EQ(Ids(SelectAll(dir_)).size(), 3u);
}

TEST_F(IngestTest, CompactFaultRetriesWithoutLossOrDuplication) {
  auto ctx = ExecutionContext::Create(2);
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions(), ctx.get());
  ASSERT_TRUE(ingestor.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i * 50)}).ok());
  }
  GlobalFaultInjector().FailNext(fault_site::kIngestCompact, 1);
  ASSERT_FALSE((*ingestor)->Flush().ok());
  EXPECT_EQ((*ingestor)->Stats().compacted, 0u);
  EXPECT_EQ(SelectAll(dir_).size(), 8u);  // all still staged, all visible

  ASSERT_TRUE((*ingestor)->Flush().ok());
  IngestorStats stats = (*ingestor)->Stats();
  EXPECT_EQ(stats.compacted, 8u);
  EXPECT_EQ(stats.staged, 0u);
  EXPECT_GE(ctx->MetricsSnapshot()[Counter::kCompactionsRun], 1u);

  std::multiset<int64_t> expected;
  for (int i = 0; i < 8; ++i) expected.insert(i);
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

// --------------------------------------------- exactly-once merged serving

TEST_F(IngestTest, ExactlyOnceAcrossCompactionBoundary) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok());
  // 18 records at seal_records=4: four segments seal and two records stay
  // in the active one — so the compaction below leaves a staged tail.
  std::multiset<int64_t> expected;
  for (int i = 0; i < 18; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, (i % 5) * 100)}).ok());
    expected.insert(i);
  }
  // Compact the sealed prefix; the unsealed tail stays staged.
  ASSERT_TRUE((*ingestor)->CompactNow().ok());
  IngestorStats stats = (*ingestor)->Stats();
  EXPECT_GT(stats.compacted, 0u);
  EXPECT_GT(stats.staged, 0u);  // mixed regime: both sources live
  EXPECT_EQ(stats.compacted + stats.staged, 18u);
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);

  // More appends after the compaction, then another partial cycle.
  for (int i = 18; i < 30; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, (i % 5) * 100)}).ok());
    expected.insert(i);
  }
  ASSERT_TRUE((*ingestor)->CompactNow().ok());
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);

  ASSERT_TRUE((*ingestor)->Flush().ok());
  EXPECT_EQ((*ingestor)->Stats().staged, 0u);
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

TEST_F(IngestTest, WalSegmentsScannedCounterCountsStagedServes) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i)}).ok());
  }
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(
      ctx, SelectQuery::FromBox(
               STBox(Mbr(-1e9, -1e9, 1e9, 1e9), Duration(-1000, 1000))));
  auto selected = selector.SelectIngest(dir_);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->Collect().size(), 3u);
  EXPECT_GE(ctx->MetricsSnapshot()[Counter::kWalSegmentsScanned], 1u);

  ASSERT_TRUE((*ingestor)->Flush().ok());
  auto ctx2 = ExecutionContext::Create(2);
  Selector<EventRecord> after(
      ctx2, SelectQuery::FromBox(
                STBox(Mbr(-1e9, -1e9, 1e9, 1e9), Duration(-1000, 1000))));
  auto compacted = after.SelectIngest(dir_);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->Collect().size(), 3u);
  // Everything is compacted now; no WAL segment should be scanned.
  EXPECT_EQ(ctx2->MetricsSnapshot()[Counter::kWalSegmentsScanned], 0u);
}

TEST_F(IngestTest, EmptyIngestDirectorySelectsEmpty) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok());
  EXPECT_EQ(SelectAll(dir_).size(), 0u);
}

TEST_F(IngestTest, ConsumedSegmentsAreDeletedOneCycleLater) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, 0)}).ok());
  }
  ASSERT_TRUE((*ingestor)->Flush().ok());  // cycle 1: consumed, kept on disk
  size_t after_first = ListWalSegments(dir_ + "/wal").size();
  EXPECT_GE(after_first, 1u);  // grace window for cross-process readers

  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, 0)}).ok());
  }
  ASSERT_TRUE((*ingestor)->Flush().ok());  // cycle 2 deletes cycle 1's files
  for (const std::string& segment : ListWalSegments(dir_ + "/wal")) {
    auto read = ReadWalSegment(segment);
    ASSERT_TRUE(read.ok());
    for (const EventRecord& r : read->records) {
      EXPECT_GE(r.id, 4) << "cycle-1 segment survived two cycles: " << segment;
    }
  }
  EXPECT_EQ(SelectAll(dir_).size(), 8u);
}

// Appends go to one active segment whatever their times, and compaction
// alone buckets by time: a feed scattered over 200 hours stays in one
// segment until seal_records, and still compacts into one-hour parts.
TEST_F(IngestTest, ScatteredFeedSealsByCountNotByHour) {
  constexpr int64_t kHour = 3600;
  IngestorOptions options = ScriptedOptions();
  options.bucket_seconds = kHour;
  options.seal_records = 1000;
  auto ingestor = Ingestor::Open(dir_, options);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  std::multiset<int64_t> expected;
  for (int i = 0; i < 200; ++i) {
    const int64_t hour = (i * 37) % 200;  // each of 200 hours once, shuffled
    ASSERT_TRUE(
        (*ingestor)->AppendBatch({MakeEvent(i, hour * kHour + 60)}).ok());
    expected.insert(i);
  }
  EXPECT_EQ((*ingestor)->Stats().wal_segments, 1u);
  ASSERT_TRUE((*ingestor)->Flush().ok());

  auto manifest = ReadStpqMeta(dir_ + "/index.meta");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->parts.size(), 200u);
  for (const StpqPartMeta& part : manifest->parts) {
    EXPECT_EQ(part.box.time.start() / kHour, part.box.time.end() / kHour)
        << part.file << " spans more than one bucket";
  }
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

// REVIEW regression: after a flush left EVERY on-disk segment consumed, a
// reopened ingestor must not mint a sequence number whose name is still in
// the manifest's consumed set — a reused name is invisible to reads and the
// next recovery deletes it, permanently losing acked records.
TEST_F(IngestTest, ReopenAfterFullCompactionDoesNotReuseConsumedNames) {
  std::multiset<int64_t> expected;
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, 0)}).ok());
      expected.insert(i);
    }
    ASSERT_TRUE((*ingestor)->Flush().ok());
    // Consumed files sit in the grace window; the manifest carries their
    // names into the next process.
  }
  {
    auto reopened = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->Stats().replayed, 0u);
    ASSERT_TRUE((*reopened)->AppendBatch({MakeEvent(100, 0)}).ok());
    expected.insert(100);
    // The fresh segment must be visible mid-stream despite the consumed
    // set still naming the same bucket's earlier segments.
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);
    // Crash without flushing.
  }
  auto again = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->Stats().replayed, 1u);  // record 100 survives recovery
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

// REVIEW regression: a parked `.open` straggler (fsync succeeded, seal
// rename failed) is recorded in the consumed set under its SEALED name, so
// the grace-window read and the next recovery both treat it as consumed —
// exactly once, not replayed.
TEST_F(IngestTest, ParkedOpenSegmentIsConsumedExactlyOnce) {
  std::string sealed_path = dir_ + "/wal/s00000000.stwal";
  std::multiset<int64_t> expected = {1};
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(1, 0)}).ok());
    // A directory squatting on the sealed name makes the seal's rename
    // fail AFTER its fsync+close: the segment is parked `.open` and the
    // flush's compaction consumes it tolerantly.
    fs::create_directories(sealed_path);
    ASSERT_TRUE((*ingestor)->Flush().ok());
    fs::remove_all(sealed_path);
    IngestorStats stats = (*ingestor)->Stats();
    EXPECT_EQ(stats.compacted, 1u);
    EXPECT_EQ(stats.staged, 0u);
    // Grace window: the `.open` file is still on disk but consumed — a
    // merged read must not double-count it.
    ASSERT_TRUE(fs::exists(sealed_path + ".open"));
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);
    // Crash before the deferred delete.
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 0u);  // consumed, not replayed
  EXPECT_FALSE(fs::exists(sealed_path + ".open"));
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

// REVIEW regression: a batch that fails must stage nothing, so the
// advertised retry-the-whole-batch contract cannot duplicate records.
TEST_F(IngestTest, AppendBatchPartialFailureStagesNothing) {
  std::multiset<int64_t> expected = {0, 1, 2, 3};
  std::string blocked = dir_ + "/wal/s00000001.stwal.open";
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    for (int i = 0; i < 4; ++i) {  // seal_records = 4: seals s00000000
      ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i * 100)}).ok());
    }
    // Squat on the name the next segment (seq 1) would be created under:
    // the next batch fails before any of its frames is written.
    fs::create_directories(blocked);
    std::vector<EventRecord> batch = {MakeEvent(4, 0), MakeEvent(5, 500)};
    ASSERT_FALSE((*ingestor)->AppendBatch(batch).ok());
    EXPECT_EQ((*ingestor)->Stats().staged, 4u);  // only the pre-batch records
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);

    fs::remove_all(blocked);
    ASSERT_TRUE((*ingestor)->AppendBatch(batch).ok());  // whole-batch retry
    expected = {0, 1, 2, 3, 4, 5};
    EXPECT_EQ((*ingestor)->Stats().staged, 6u);
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);
    // Crash without flushing.
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 6u);
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
  // Flush strict-parses the re-sealed segments.
  ASSERT_TRUE((*reopened)->Flush().ok());
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

// A write(2) cut short by the file-size limit leaves part of a frame past
// the segment's watermark. The append must truncate it away, so the later
// appends frame cleanly after the last acked record and the directory
// still opens, replays and compacts every acked record.
TEST_F(IngestTest, PartialWriteStagesNothing) {
  IngestorOptions options = ScriptedOptions();
  options.seal_records = 5;  // the fifth ack seals the rolled-back segment
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes name the step that failed.
    std::signal(SIGXFSZ, SIG_IGN);
    auto ingestor = Ingestor::Open(dir_, options);
    if (!ingestor.ok()) ::_exit(2);
    for (int i = 0; i < 3; ++i) {
      if (!(*ingestor)->AppendBatch({MakeEvent(i, i)}).ok()) ::_exit(3);
    }
    const std::vector<std::string> segments = ListWalSegments(dir_ + "/wal");
    if (segments.size() != 1) ::_exit(4);
    const uint64_t acked_bytes = fs::file_size(segments[0]);
    rlimit saved{};
    if (::getrlimit(RLIMIT_FSIZE, &saved) != 0) ::_exit(5);
    rlimit capped = saved;
    capped.rlim_cur = acked_bytes + 10;
    if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) ::_exit(5);
    Status cut = (*ingestor)->AppendBatch({MakeEvent(100, 3)});
    if (cut.code() != Status::Code::kIOError) ::_exit(6);
    if (fs::file_size(segments[0]) != acked_bytes) ::_exit(7);
    if (::setrlimit(RLIMIT_FSIZE, &saved) != 0) ::_exit(8);
    for (int i = 3; i < 5; ++i) {
      if (!(*ingestor)->AppendBatch({MakeEvent(i, i)}).ok()) ::_exit(9);
    }
    ::_exit(0);  // no flush: a crash as far as the WAL is concerned
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child status " << status;
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const std::multiset<int64_t> acked = {0, 1, 2, 3, 4};
  auto reopened = Ingestor::Open(dir_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 5u);
  EXPECT_EQ(Ids(SelectAll(dir_)), acked);
  Status flushed = (*reopened)->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(Ids(SelectAll(dir_)), acked);
}

// A sealed segment must parse end to end in every reader: the merged
// Select fails closed on a corrupt frame, as compaction does, instead of
// answering with the records before it.
TEST_F(IngestTest, CorruptSealedSegmentFailsTheMergedSelect) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  ASSERT_TRUE((*ingestor)
                  ->AppendBatch({MakeEvent(0, 0), MakeEvent(1, 1),
                                 MakeEvent(2, 2), MakeEvent(3, 3)})
                  .ok());
  const std::vector<std::string> segments = ListWalSegments(dir_ + "/wal");
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_FALSE(IsOpenWalSegment(segments[0]));  // seal_records = 4
  // The first payload byte: past the header and the first frame's length
  // and CRC words.
  FlipByte(segments[0], kWalHeaderBytes + kWalFrameOverhead);

  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(STBox(
                                          Mbr(-1e9, -1e9, 1e9, 1e9),
                                          Duration(-1000000000, 1000000000))));
  auto selected = selector.SelectIngest(dir_);
  ASSERT_FALSE(selected.ok()) << "selected " << selected->Count() << " of 4";
  EXPECT_EQ(selected.status().code(), Status::Code::kCorruption);
  Status flushed = (*ingestor)->Flush();
  EXPECT_EQ(flushed.code(), Status::Code::kCorruption) << flushed.ToString();
}

// REVIEW regression: a crash between creating a segment and flushing its
// header leaves a 0-byte or short-headered `.open` file; recovery must
// clean it up (nothing in it was ever acked) instead of refusing to open
// the directory — while still reserving its sequence number.
TEST_F(IngestTest, HeaderlessOpenSegmentIsCleanedUpNotFatal) {
  // Direct reader contract first, on scratch files outside the wal dir: a
  // 0-byte file is Corruption under a sealed name, an empty torn segment
  // under an active one.
  std::string scratch = dir_ + "/zero.stwal";
  { std::ofstream f(scratch, std::ios::binary); }
  fs::copy_file(scratch, scratch + ".open");
  auto strict = ReadWalSegment(scratch);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption);
  auto tolerant = ReadWalSegment(scratch + ".open");
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_TRUE(tolerant->torn_tail);
  EXPECT_EQ(tolerant->good_bytes, 0u);
  EXPECT_TRUE(tolerant->records.empty());

  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(1, 0)}).ok());
  }
  { std::ofstream f(dir_ + "/wal/s00000007-b0.stwal.open"); }  // 0 bytes
  {
    std::ofstream f(dir_ + "/wal/s00000008-b0.stwal.open", std::ios::binary);
    f.write("STW", 3);  // torn mid-header
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 1u);
  EXPECT_EQ(Ids(SelectAll(dir_)), std::multiset<int64_t>{1});
  // The headerless debris is gone...
  EXPECT_EQ(ListWalSegments(dir_ + "/wal").size(), 1u);
  // ...but its sequence numbers stay reserved: the next new segment mints
  // seq 9, not a recycled 7 or 8.
  ASSERT_TRUE((*reopened)->AppendBatch({MakeEvent(2, 500)}).ok());
  bool minted_past_debris = false;
  for (const std::string& segment : ListWalSegments(dir_ + "/wal")) {
    if (segment.find("s00000009") != std::string::npos) {
      minted_past_debris = true;
    }
  }
  EXPECT_TRUE(minted_past_debris);
}

// Directories written when appends were routed by time bucket name their
// segments `s<seq>-b<bucket>.stwal`: they still reopen and replay, their
// sequence numbers stay reserved, and their consumed names in index.meta
// still match their files.
TEST_F(IngestTest, BucketNamedSegmentsStillRecover) {
  const std::string wal = dir_ + "/wal";
  // s1: consumed by an earlier compaction, still in its grace window.
  auto consumed = WalWriter::Create(wal + "/s00000001-b7.stwal");
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  ASSERT_TRUE(WriteFrames(*consumed, {MakeEvent(100, 700)}).ok());
  ASSERT_TRUE(consumed->Seal().ok());
  StpqManifest meta;
  meta.generation = 1;
  meta.consumed = {"s00000001-b7.stwal"};
  ASSERT_TRUE(WriteStpqMeta(dir_ + "/index.meta", meta).ok());
  // s2: sealed, unconsumed. s3: active, as a crash leaves it.
  auto sealed = WalWriter::Create(wal + "/s00000002-b7.stwal");
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_TRUE(
      WriteFrames(*sealed, {MakeEvent(1, 700), MakeEvent(2, 710)}).ok());
  ASSERT_TRUE(sealed->Seal().ok());
  auto active = WalWriter::Create(wal + "/s00000003-b7.stwal");
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  ASSERT_TRUE(WriteFrames(*active, {MakeEvent(3, 720)}).ok());
  active->Abandon();
  ASSERT_TRUE(fs::exists(wal + "/s00000003-b7.stwal.open"));

  std::multiset<int64_t> expected = {1, 2, 3};
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    EXPECT_EQ((*ingestor)->Stats().replayed, 3u);
    EXPECT_FALSE(fs::exists(wal + "/s00000001-b7.stwal"));  // consumed
    EXPECT_TRUE(fs::exists(wal + "/s00000003-b7.stwal"));   // re-sealed
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(4, 0)}).ok());
    expected.insert(4);
    EXPECT_TRUE(fs::exists(wal + "/s00000004.stwal.open"));
    ASSERT_TRUE((*ingestor)->Flush().ok());
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 0u);  // old names consumed too
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

TEST_F(IngestTest, RecoveryTruncatesTornTailAndReseals) {
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, 0)}).ok());
    }
  }
  // Tear the active segment's last frame, as a crash mid-write would.
  std::vector<std::string> segments = ListWalSegments(dir_ + "/wal");
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_NE(segments[0].find(".open"), std::string::npos);
  fs::resize_file(segments[0], fs::file_size(segments[0]) - 3);

  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 2u);  // the torn record dropped
  // The re-sealed segment must now parse STRICTLY end to end.
  segments = ListWalSegments(dir_ + "/wal");
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].find(".open"), std::string::npos);
  ASSERT_FALSE(IsOpenWalSegment(segments[0]));
  auto strict = ReadWalSegment(segments[0]);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->records.size(), 2u);
  EXPECT_EQ(Ids(SelectAll(dir_)).size(), 2u);
}

// ------------------------------------------- index.meta, the one part list

// Every record a merged read of `dir` through its own index.meta returns.
std::vector<EventRecord> SelectThroughIndexMeta(const std::string& dir,
                                                const STBox& box) {
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(box));
  auto selected = selector.Select(dir, dir + "/index.meta");
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return selected->Collect();
}

const STBox kEverywhere(Mbr(-1e9, -1e9, 1e9, 1e9),
                        Duration(-1000000000, 1000000000));

TEST_F(IngestTest, IndexMetaSelectServesFlushedPartsAndStagedTail) {
  auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i * 31)}).ok());
  }
  ASSERT_TRUE((*ingestor)->Flush().ok());
  std::multiset<int64_t> expected;
  for (int i = 0; i < 14; ++i) expected.insert(i);
  for (int i = 9; i < 14; ++i) {
    ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i * 31)}).ok());
  }
  // The tool's read (st4ml_select) and the daemon's are one read.
  EXPECT_EQ(Ids(SelectThroughIndexMeta(dir_, kEverywhere)), expected);
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

TEST_F(IngestTest, OpenAdoptsTheBatchBuiltPartList) {
  auto ctx = ExecutionContext::Create(2);
  std::vector<EventRecord> batch;
  for (int i = 0; i < 200; ++i) batch.push_back(MakeEvent(i, i % 700));
  TSTRPartitioner partitioner(2, 2);
  ASSERT_TRUE(BuildOnDiskIndex(Dataset<EventRecord>::Parallelize(ctx, batch, 2),
                               &partitioner, dir_, dir_ + "/index.meta")
                  .ok());
  std::vector<std::string> batch_parts;
  for (const std::string& path : ListStpqFiles(dir_)) {
    batch_parts.push_back(fs::path(path).filename().string());
  }
  ASSERT_FALSE(batch_parts.empty());
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    EXPECT_EQ((*ingestor)->Stats().compacted, 200u);
    for (int i = 200; i < 210; ++i) {
      ASSERT_TRUE((*ingestor)->AppendBatch({MakeEvent(i, i)}).ok());
    }
    ASSERT_TRUE((*ingestor)->Flush().ok());
  }
  std::multiset<int64_t> expected;
  for (int i = 0; i < 210; ++i) expected.insert(i);
  EXPECT_EQ(Ids(SelectThroughIndexMeta(dir_, kEverywhere)), expected);
  auto manifest = ReadStpqMeta(dir_ + "/index.meta");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::set<std::string> listed;
  for (const StpqPartMeta& part : manifest->parts) listed.insert(part.file);
  for (const std::string& name : batch_parts) {
    EXPECT_TRUE(listed.count(name)) << name << " dropped from index.meta";
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().compacted, 210u);
}

TEST_F(IngestTest, CompactionOfNanAndInfiniteEventsStaysReadable) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<EventRecord> events;
  for (int i = 0; i < 6; ++i) events.push_back(MakeEvent(i, i * 10));
  events[0].x = std::nan("");  // first of its part: the union starts there
  events[4].x = inf;
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE((*ingestor)->AppendBatch(events).ok());
    ASSERT_TRUE((*ingestor)->Flush().ok());
  }
  const STBox unbounded(Mbr(-inf, -inf, inf, inf),
                        Duration(-1000000000, 1000000000));
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> plain(ctx, SelectQuery::FromBox(unbounded));
  auto scanned = plain.Select(dir_);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  const std::multiset<int64_t> expected = Ids(scanned->Collect());
  EXPECT_EQ(expected, (std::multiset<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Ids(SelectThroughIndexMeta(dir_, unbounded)), expected);
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
}

}  // namespace
}  // namespace st4ml
