// Crash-safe streaming ingestion (DESIGN.md §13): WAL framing round trips,
// torn tails, injected faults at wal/append, wal/seal and ingest/compact,
// reopen-and-replay exactly the acked records, exactly-once across the
// compaction boundary, and the merged SelectIngest view mid-stream.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "engine/execution_context.h"
#include "ingest/ingestor.h"
#include "ingest/wal.h"
#include "selection/selector.h"
#include "storage/records.h"

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
  for (const EventRecord& r : in) {
    ASSERT_TRUE(writer->Append(r).ok());
  }
  ASSERT_TRUE(fs::exists(path + ".open"));
  ASSERT_FALSE(fs::exists(path));
  ASSERT_TRUE(writer->Seal().ok());
  ASSERT_TRUE(fs::exists(path));
  ASSERT_FALSE(fs::exists(path + ".open"));

  auto read = ReadWalSegment(path, /*strict=*/true);
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

TEST_F(IngestTest, WalTornTailTolerantVsStrict) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(MakeEvent(i, i)).ok());
  writer->Abandon();  // crash: no fsync, no rename — segment stays .open

  std::string open_path = path + ".open";
  uint64_t full = fs::file_size(open_path);
  fs::resize_file(open_path, full - 5);  // tear the last frame

  auto tolerant = ReadWalSegment(open_path, /*strict=*/false);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_TRUE(tolerant->torn_tail);
  ASSERT_EQ(tolerant->records.size(), 2u);
  EXPECT_EQ(tolerant->records[0].id, 0);
  EXPECT_EQ(tolerant->records[1].id, 1);
  EXPECT_LT(tolerant->good_bytes, full - 5);

  auto strict = ReadWalSegment(open_path, /*strict=*/true);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption);
}

// A merged Select lists `.open` segments, then reads them; a Seal in between
// renames the file away. The read falls back to the sealed name once.
TEST_F(IngestTest, ListedOpenSegmentSealedBeforeReadIsReadUnderSealedName) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(MakeEvent(i, i)).ok());
  const std::string listed = writer->open_path();
  ASSERT_TRUE(writer->Seal().ok());
  ASSERT_FALSE(fs::exists(listed));

  auto plain_miss = ReadWalSegment(listed, /*strict=*/false);
  ASSERT_FALSE(plain_miss.ok());
  EXPECT_EQ(plain_miss.status().code(), Status::Code::kNotFound);

  auto read = ReadListedWalSegment(listed);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->good_bytes, fs::file_size(path));
  ASSERT_EQ(read->records.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(read->records[i].id, i);

  // Only a vanished `.open` name falls back; a missing sealed name is
  // still NotFound.
  fs::remove(path);
  auto gone = ReadListedWalSegment(path);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), Status::Code::kNotFound);
}

// A directory listing that caught a seal mid-rename may report one segment
// under both names; its records are selected once, not twice.
TEST_F(IngestTest, SegmentListedUnderBothNamesIsSelectedOnce) {
  fs::create_directories(dir_ + "/wal");
  std::string path = dir_ + "/wal/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(writer->Append(MakeEvent(i, i)).ok());
  writer->Abandon();
  fs::copy_file(path + ".open", path);
  ASSERT_EQ(ListWalSegments(dir_ + "/wal").size(), 2u);
  EXPECT_EQ(Ids(SelectAll(dir_)), (std::multiset<int64_t>{0, 1, 2, 3}));
}

TEST_F(IngestTest, WalCrcFlipIsCorruptionWhenSealed) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(writer->Append(MakeEvent(i, i)).ok());
  ASSERT_TRUE(writer->Seal().ok());

  // Flip one payload byte of the SECOND frame.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    auto size = static_cast<int64_t>(f.tellg());
    f.seekp(size - 3);
    char c;
    f.seekg(size - 3);
    f.read(&c, 1);
    c ^= 0x5A;
    f.seekp(size - 3);
    f.write(&c, 1);
  }
  auto strict = ReadWalSegment(path, /*strict=*/true);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption);

  auto tolerant = ReadWalSegment(path, /*strict=*/false);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_TRUE(tolerant->torn_tail);
  EXPECT_EQ(tolerant->records.size(), 1u);
}

TEST_F(IngestTest, WalImplausibleLengthWordIsTornNotHugeAlloc) {
  std::string path = dir_ + "/s00000000-b0.stwal";
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(MakeEvent(7, 7)).ok());
  writer->Abandon();
  // Append a garbage frame whose length word claims 4 GB.
  {
    std::ofstream f(path + ".open", std::ios::app | std::ios::binary);
    uint32_t huge = 0xFFFFFFF0u;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
    f.write("garbage", 7);
  }
  auto tolerant = ReadWalSegment(path + ".open", /*strict=*/false);
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
      ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, i * 37)).ok());
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
      ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, i)).ok());
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
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(1, 10)).ok());
    GlobalFaultInjector().FailNext(fault_site::kWalAppend, 1);
    Status failed = (*ingestor)->Append(MakeEvent(2, 20));
    ASSERT_FALSE(failed.ok());  // never acked
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(3, 30)).ok());
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
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, i)).ok());
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
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, i * 50)).ok());
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
  // 18 records over 5 buckets at seal_records=4: three buckets seal, two
  // keep an open writer — so the compaction below leaves a staged tail.
  std::multiset<int64_t> expected;
  for (int i = 0; i < 18; ++i) {
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, (i % 5) * 100)).ok());
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
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, (i % 5) * 100)).ok());
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
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, i)).ok());
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
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, 0)).ok());
  }
  ASSERT_TRUE((*ingestor)->Flush().ok());  // cycle 1: consumed, kept on disk
  size_t after_first = ListWalSegments(dir_ + "/wal").size();
  EXPECT_GE(after_first, 1u);  // grace window for cross-process readers

  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, 0)).ok());
  }
  ASSERT_TRUE((*ingestor)->Flush().ok());  // cycle 2 deletes cycle 1's files
  for (const std::string& segment : ListWalSegments(dir_ + "/wal")) {
    auto read = ReadWalSegment(segment, /*strict=*/false);
    ASSERT_TRUE(read.ok());
    for (const EventRecord& r : read->records) {
      EXPECT_GE(r.id, 4) << "cycle-1 segment survived two cycles: " << segment;
    }
  }
  EXPECT_EQ(SelectAll(dir_).size(), 8u);
}

TEST_F(IngestTest, MaxOpenBucketsCapsWriterFds) {
  IngestorOptions options = ScriptedOptions();
  options.max_open_buckets = 4;
  options.seal_records = 1000;  // only the cap can seal
  auto ingestor = Ingestor::Open(dir_, options);
  ASSERT_TRUE(ingestor.ok());
  // 12 distinct buckets, far over the cap of 4 concurrently open writers.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, i * 1000)).ok());
  }
  size_t sealed = 0;
  for (const std::string& segment : ListWalSegments(dir_ + "/wal")) {
    if (segment.size() > 6 &&
        segment.compare(segment.size() - 6, 6, ".stwal") == 0) {
      ++sealed;
    }
  }
  EXPECT_GE(sealed, 8u);  // every writer past the cap was sealed on rotation
  EXPECT_EQ(SelectAll(dir_).size(), 12u);
  ASSERT_TRUE((*ingestor)->Flush().ok());
  EXPECT_EQ(SelectAll(dir_).size(), 12u);
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
      ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, 0)).ok());
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
    ASSERT_TRUE((*reopened)->Append(MakeEvent(100, 0)).ok());
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
  std::string sealed_path = dir_ + "/wal/s00000000-b0.stwal";
  std::multiset<int64_t> expected = {1};
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(1, 0)).ok());
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

// REVIEW regression: a batch failing on its SECOND bucket must roll the
// first bucket's frames back — nothing staged, so the advertised
// retry-the-whole-batch contract cannot duplicate records.
TEST_F(IngestTest, AppendBatchPartialFailureStagesNothing) {
  std::multiset<int64_t> expected = {1};
  std::string blocked = dir_ + "/wal/s00000001-b5.stwal.open";
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(1, 0)).ok());  // bucket 0
    // Squat on the name the batch's SECOND bucket (time 500 → bucket 5,
    // seq 1) would create: bucket 0's frames write first, then bucket 5's
    // writer creation fails.
    fs::create_directories(blocked);
    std::vector<EventRecord> batch = {MakeEvent(2, 0), MakeEvent(3, 500)};
    ASSERT_FALSE((*ingestor)->AppendBatch(batch).ok());
    EXPECT_EQ((*ingestor)->Stats().staged, 1u);  // only the pre-batch record
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);

    fs::remove_all(blocked);
    ASSERT_TRUE((*ingestor)->AppendBatch(batch).ok());  // whole-batch retry
    expected = {1, 2, 3};
    EXPECT_EQ((*ingestor)->Stats().staged, 3u);
    EXPECT_EQ(Ids(SelectAll(dir_)), expected);
    // Crash without flushing.
  }
  auto reopened = Ingestor::Open(dir_, ScriptedOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().replayed, 3u);
  // Flush strict-parses the re-sealed segments: the rolled-back-then-
  // rewritten bucket must frame cleanly end to end.
  ASSERT_TRUE((*reopened)->Flush().ok());
  EXPECT_EQ(Ids(SelectAll(dir_)), expected);
}

// REVIEW regression: a crash between creating a segment and flushing its
// header leaves a 0-byte or short-headered `.open` file; recovery must
// clean it up (nothing in it was ever acked) instead of refusing to open
// the directory — while still reserving its sequence number.
TEST_F(IngestTest, HeaderlessOpenSegmentIsCleanedUpNotFatal) {
  // Direct reader contract first, on a scratch file outside the wal dir.
  std::string scratch = dir_ + "/zero.stwal";
  { std::ofstream f(scratch, std::ios::binary); }
  auto strict = ReadWalSegment(scratch, /*strict=*/true);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption);
  auto tolerant = ReadWalSegment(scratch, /*strict=*/false);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_TRUE(tolerant->torn_tail);
  EXPECT_EQ(tolerant->good_bytes, 0u);
  EXPECT_TRUE(tolerant->records.empty());

  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->Append(MakeEvent(1, 0)).ok());
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
  ASSERT_TRUE((*reopened)->Append(MakeEvent(2, 500)).ok());
  bool minted_past_debris = false;
  for (const std::string& segment : ListWalSegments(dir_ + "/wal")) {
    if (segment.find("s00000009") != std::string::npos) {
      minted_past_debris = true;
    }
  }
  EXPECT_TRUE(minted_past_debris);
}

TEST_F(IngestTest, RecoveryTruncatesTornTailAndReseals) {
  {
    auto ingestor = Ingestor::Open(dir_, ScriptedOptions());
    ASSERT_TRUE(ingestor.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*ingestor)->Append(MakeEvent(i, 0)).ok());
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
  auto strict = ReadWalSegment(segments[0], /*strict=*/true);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->records.size(), 2u);
  EXPECT_EQ(Ids(SelectAll(dir_)).size(), 2u);
}

}  // namespace
}  // namespace st4ml
