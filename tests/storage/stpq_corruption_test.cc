// Corrupt-input matrix for the STPQ readers: every malformed file must come
// back as a Corruption/NotFound Status — never a throw, a crash, or a
// header-driven giant allocation — from both decode paths: the whole-file
// readers and StpqReader's ranged reads.

#include "storage/stpq.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/stix.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_stpq_corrupt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> SomeEvents(int n) {
  Rng rng(7);
  std::vector<EventRecord> events;
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = rng.Uniform(0, 10);
    r.y = rng.Uniform(0, 10);
    r.time = rng.UniformInt(0, 1000);
    r.attr = "abc";
    events.push_back(r);
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

template <typename T>
void Append(std::string* bytes, const T& value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Layout refresher: "STPQ1" | kind u8 | count u64 | records. The count
// field starts at byte 6.
constexpr size_t kCountOffset = sizeof(kStpqMagic) + 1;

template <typename RecordT>
constexpr uint8_t KindOf() {
  return std::is_same_v<RecordT, EventRecord> ? kStpqKindEvent : kStpqKindTraj;
}

// The ranged decode path over a whole file: open (header check), then one
// run spanning every record byte the header's count promises.
template <typename RecordT>
Status ReadAllRanged(const std::string& path, std::vector<RecordT>* out) {
  auto reader = StpqReader::Open(path, KindOf<RecordT>());
  if (!reader.ok()) return reader.status();
  return reader->ReadRecordsAt(kStpqHeaderBytes, reader->file_bytes(),
                               reader->record_count(), out);
}

// Both decode paths must reject `path` with `code` (and, when given, a
// message naming `what`).
template <typename RecordT>
void ExpectBothPathsFail(const std::string& path, Status::Code code,
                         const std::string& what = "") {
  auto whole = ReadStpqFile<RecordT>(path);
  ASSERT_FALSE(whole.ok()) << "whole-file reader accepted " << path;
  EXPECT_EQ(whole.status().code(), code) << whole.status().ToString();
  std::vector<RecordT> out;
  Status ranged = ReadAllRanged(path, &out);
  ASSERT_FALSE(ranged.ok()) << "ranged reader accepted " << path;
  EXPECT_EQ(ranged.code(), code) << ranged.ToString();
  if (!what.empty()) {
    EXPECT_NE(whole.status().message().find(what), std::string::npos)
        << whole.status().ToString();
    EXPECT_NE(ranged.message().find(what), std::string::npos)
        << ranged.ToString();
  }
}

bool SameEvents(const std::vector<EventRecord>& a,
                const std::vector<EventRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].x != b[i].x || a[i].y != b[i].y ||
        a[i].time != b[i].time || a[i].attr != b[i].attr) {
      return false;
    }
  }
  return true;
}

bool SameTrajs(const std::vector<TrajRecord>& a,
               const std::vector<TrajRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].points.size() != b[i].points.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].points.size(); ++j) {
      const TrajPointRecord& p = a[i].points[j];
      const TrajPointRecord& q = b[i].points[j];
      if (p.x != q.x || p.y != q.y || p.time != q.time) return false;
    }
  }
  return true;
}

TrajRecord SomeTraj(int64_t id, int npoints) {
  TrajRecord t;
  t.id = id;
  for (int i = 0; i < npoints; ++i) {
    TrajPointRecord p;
    p.x = i + 0.5 * static_cast<double>(id);
    p.y = -i;
    p.time = 100 * i;
    t.points.push_back(p);
  }
  return t;
}

TEST(StpqCorruptionTest, MissingFileIsNotFound) {
  std::string dir = TempDir("missing");
  ExpectBothPathsFail<EventRecord>(dir + "/nope.stpq",
                                   Status::Code::kNotFound);
}

TEST(StpqCorruptionTest, BadMagicIsCorruption) {
  std::string dir = TempDir("magic");
  std::string path = dir + "/bad.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(3)).ok());
  std::string bytes = Slurp(path);
  bytes[0] = 'X';
  Dump(path, bytes);
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, EmptyFileIsCorruption) {
  std::string dir = TempDir("empty");
  std::string path = dir + "/empty.stpq";
  Dump(path, "");
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, TruncatedHeaderIsCorruption) {
  std::string dir = TempDir("header");
  std::string path = dir + "/short.stpq";
  std::string bytes(kStpqMagic, sizeof(kStpqMagic));
  bytes.push_back(static_cast<char>(kStpqKindEvent));
  Dump(path, bytes);  // magic + kind, no count
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, WrongRecordKindIsCorruption) {
  std::string dir = TempDir("kind");
  std::string path = dir + "/traj.stpq";
  ASSERT_TRUE(
      WriteStpqFile(path, std::vector<TrajRecord>(2)).ok());
  // Events readers on a traj file.
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, OversizedCountDoesNotOverAllocate) {
  // A count claiming ~2^60 records in a tiny file must fail as Corruption
  // when the records run out — and must NOT reserve() count slots first
  // (the clamp caps the reserve at file_bytes / min_record_size, so this
  // test completes without exhausting memory).
  std::string dir = TempDir("count");
  std::string path = dir + "/huge.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(2)).ok());
  std::string bytes = Slurp(path);
  uint64_t huge = uint64_t{1} << 60;
  std::memcpy(&bytes[kCountOffset], &huge, sizeof(huge));
  Dump(path, bytes);
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, OversizedTrajCountDoesNotOverAllocate) {
  std::string dir = TempDir("tcount");
  std::string path = dir + "/huge.stpq";
  ASSERT_TRUE(WriteStpqFile(path, std::vector<TrajRecord>(1)).ok());
  std::string bytes = Slurp(path);
  uint64_t huge = uint64_t{1} << 61;
  std::memcpy(&bytes[kCountOffset], &huge, sizeof(huge));
  Dump(path, bytes);
  ExpectBothPathsFail<TrajRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, OverflowingPointCountIsCorruption) {
  // npoints chosen so that npoints * 24 wraps a u64 to a SMALL number: the
  // old `n * 24 > file_bytes` check passed and resize(n) then threw
  // length_error. The divide-form check must reject it as Corruption.
  std::string dir = TempDir("points");
  std::string path = dir + "/wrap.stpq";
  std::string bytes(kStpqMagic, sizeof(kStpqMagic));
  bytes.push_back(static_cast<char>(kStpqKindTraj));
  Append(&bytes, uint64_t{1});                     // one record
  Append(&bytes, int64_t{5});                      // id
  uint64_t wrapping = (uint64_t{1} << 63) + 2;     // * 24 wraps to 48
  Append(&bytes, wrapping);                        // npoints
  Dump(path, bytes);
  ExpectBothPathsFail<TrajRecord>(path, Status::Code::kCorruption,
                                  "point count");
}

TEST(StpqCorruptionTest, ImplausibleAttrLengthIsCorruption) {
  // An attr_len bigger than the whole file must be rejected before the
  // resize(len) allocation, not after a 4 GiB read attempt.
  std::string dir = TempDir("attr");
  std::string path = dir + "/attr.stpq";
  std::string bytes(kStpqMagic, sizeof(kStpqMagic));
  bytes.push_back(static_cast<char>(kStpqKindEvent));
  Append(&bytes, uint64_t{1});
  Append(&bytes, int64_t{1});    // id
  Append(&bytes, double{1.0});   // x
  Append(&bytes, double{2.0});   // y
  Append(&bytes, int64_t{3});    // time
  Append(&bytes, uint32_t{0xFFFFFFFF});  // attr_len
  Dump(path, bytes);
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption,
                                   "attr length");
}

TEST(StpqCorruptionTest, TruncatedEventTailIsCorruption) {
  std::string dir = TempDir("tail");
  std::string path = dir + "/tail.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(10)).ok());
  std::string bytes = Slurp(path);
  Dump(path, bytes.substr(0, bytes.size() - 7));
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, TruncatedTrajTailIsCorruption) {
  std::string dir = TempDir("ttail");
  std::string path = dir + "/tail.stpq";
  TrajRecord t;
  t.id = 1;
  for (int i = 0; i < 8; ++i) {
    TrajPointRecord p;
    p.x = i;
    p.y = i;
    p.time = i;
    t.points.push_back(p);
  }
  ASSERT_TRUE(WriteStpqFile(path, std::vector<TrajRecord>{t}).ok());
  std::string bytes = Slurp(path);
  Dump(path, bytes.substr(0, bytes.size() - 3));
  ExpectBothPathsFail<TrajRecord>(path, Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, BadMetaHeaderIsCorruption) {
  std::string dir = TempDir("meta");
  std::string path = dir + "/idx.meta";
  Dump(path, "stpq-meta v999\n");
  auto loaded = ReadStpqMeta(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, BadMetaLineIsCorruption) {
  std::string dir = TempDir("metaline");
  std::string path = dir + "/idx.meta";
  Dump(path, "stpq-meta v1\npart-00000.stpq not-a-number\n");
  auto loaded = ReadStpqMeta(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

// ---- atomic publish: writers stage into `<path>.tmp` and rename into
// place, so a torn write can never leave a half-written file under the
// final name.

TEST(StpqCorruptionTest, TornPublishLeavesOriginalIntact) {
  std::string dir = TempDir("tornpub");
  std::string path = dir + "/part.stpq";
  auto original = SomeEvents(5);
  ASSERT_TRUE(WriteStpqFile(path, original).ok());
  std::string before = Slurp(path);

  // Sabotage the staging path: a DIRECTORY at `<path>.tmp` makes the tmp
  // open fail, simulating a publish torn before the rename.
  fs::create_directories(path + ".tmp");
  Status rewrite = WriteStpqFile(path, SomeEvents(50));
  ASSERT_FALSE(rewrite.ok());
  // The previously published file is byte-identical and still loads: a
  // failed publish must be invisible to readers.
  EXPECT_EQ(Slurp(path), before);
  auto loaded = ReadStpqEvents(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  fs::remove_all(path + ".tmp");
}

TEST(StpqCorruptionTest, SuccessfulPublishLeavesNoTmpDebris) {
  std::string dir = TempDir("pubclean");
  std::string path = dir + "/part.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(5)).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  ASSERT_TRUE(BuildStixForStpq(path, SomeEvents(5)).ok());
  EXPECT_FALSE(fs::exists(StixPathFor(path) + ".tmp"));
}

TEST(StpqCorruptionTest, TornStixPublishLeavesOldSidecarIntact) {
  std::string dir = TempDir("tornstix");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  std::string stix = StixPathFor(path);
  std::string before = Slurp(stix);

  fs::create_directories(stix + ".tmp");
  ASSERT_FALSE(BuildStixForStpq(path, events).ok());
  EXPECT_EQ(Slurp(stix), before);
  // The surviving sidecar still validates against its source.
  EXPECT_TRUE(StixIndex::Open(stix, path).ok());
  fs::remove_all(stix + ".tmp");
}

// ---- ranged reads: a sidecar that disagrees with its file must surface as
// Corruption from ReadRecordsAt, never as silently wrong records.

TEST(StpqCorruptionTest, RangedReadVerifiesPromisedByteRun) {
  std::string dir = TempDir("range");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(5);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  uint64_t first_bytes = StpqRecordBytes(events[0]);

  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<EventRecord> out;
  // Promise one record but a byte run that spans two: parse must notice
  // the leftover bytes instead of returning a short read.
  Status mismatched = reader->ReadRecordsAt(
      kStpqHeaderBytes, kStpqHeaderBytes + first_bytes + 4, 1, &out);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, RangedReadRejectsRunPastEof) {
  std::string dir = TempDir("rangeeof");
  std::string path = dir + "/part.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(3)).ok());
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok());
  std::vector<EventRecord> out;
  uint64_t eof = reader->file_bytes();
  Status past = reader->ReadRecordsAt(eof - 4, eof + 64, 1, &out);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, RangedRunEndingMidRecordIsCorruption) {
  std::string dir = TempDir("rangemid");
  std::string events_path = dir + "/events.stpq";
  auto events = SomeEvents(5);
  ASSERT_TRUE(WriteStpqFile(events_path, events).ok());
  auto events_reader = StpqReader::Open(events_path, kStpqKindEvent);
  ASSERT_TRUE(events_reader.ok());
  // Two records promised, but the run stops halfway through the second.
  uint64_t mid = kStpqHeaderBytes + StpqRecordBytes(events[0]) +
                 StpqRecordBytes(events[1]) / 2;
  std::vector<EventRecord> event_out;
  Status short_events =
      events_reader->ReadRecordsAt(kStpqHeaderBytes, mid, 2, &event_out);
  ASSERT_FALSE(short_events.ok());
  EXPECT_EQ(short_events.code(), Status::Code::kCorruption);

  std::string trajs_path = dir + "/trajs.stpq";
  std::vector<TrajRecord> trajs = {SomeTraj(1, 4), SomeTraj(2, 6)};
  ASSERT_TRUE(WriteStpqFile(trajs_path, trajs).ok());
  auto trajs_reader = StpqReader::Open(trajs_path, kStpqKindTraj);
  ASSERT_TRUE(trajs_reader.ok());
  mid = kStpqHeaderBytes + StpqRecordBytes(trajs[0]) + 8 + 8 + 24 + 5;
  std::vector<TrajRecord> traj_out;
  Status short_trajs =
      trajs_reader->ReadRecordsAt(kStpqHeaderBytes, mid, 2, &traj_out);
  ASSERT_FALSE(short_trajs.ok());
  EXPECT_EQ(short_trajs.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, RangedRunWithTrailingBytesIsCorruption) {
  // Bytes after the header's last record: the whole-body run promises
  // record_count records but holds more bytes than they consume.
  std::string dir = TempDir("rangetrail");
  std::string events_path = dir + "/events.stpq";
  ASSERT_TRUE(WriteStpqFile(events_path, SomeEvents(4)).ok());
  Dump(events_path, Slurp(events_path) + "junk");
  std::vector<EventRecord> event_out;
  Status events = ReadAllRanged(events_path, &event_out);
  ASSERT_FALSE(events.ok());
  EXPECT_EQ(events.code(), Status::Code::kCorruption);

  std::string trajs_path = dir + "/trajs.stpq";
  ASSERT_TRUE(
      WriteStpqFile(trajs_path, std::vector<TrajRecord>{SomeTraj(1, 3)}).ok());
  Dump(trajs_path, Slurp(trajs_path) + std::string(24, '\0'));
  std::vector<TrajRecord> traj_out;
  Status trajs = ReadAllRanged(trajs_path, &traj_out);
  ASSERT_FALSE(trajs.ok());
  EXPECT_EQ(trajs.code(), Status::Code::kCorruption);
}

// Zero-length payloads are the decoder's edge: empty attrs and zero-point
// trajectories must round-trip through the whole-file reader, one ranged
// run per record, and one run over the whole body.
TEST(StpqCorruptionTest, EmptyPayloadsRoundTripThroughBothPaths) {
  std::string dir = TempDir("emptypayload");
  std::string events_path = dir + "/events.stpq";
  auto events = SomeEvents(6);
  for (size_t i = 0; i < events.size(); i += 2) events[i].attr.clear();
  ASSERT_TRUE(WriteStpqFile(events_path, events).ok());
  auto whole_events = ReadStpqEvents(events_path);
  ASSERT_TRUE(whole_events.ok()) << whole_events.status().ToString();
  EXPECT_TRUE(SameEvents(*whole_events, events));
  std::vector<EventRecord> ranged_events;
  ASSERT_TRUE(ReadAllRanged(events_path, &ranged_events).ok());
  EXPECT_TRUE(SameEvents(ranged_events, events));
  auto events_reader = StpqReader::Open(events_path, kStpqKindEvent);
  ASSERT_TRUE(events_reader.ok());
  std::vector<EventRecord> one_by_one;
  uint64_t offset = kStpqHeaderBytes;
  for (const EventRecord& r : events) {
    uint64_t end = offset + StpqRecordBytes(r);
    ASSERT_TRUE(events_reader->ReadRecordsAt(offset, end, 1, &one_by_one).ok());
    offset = end;
  }
  EXPECT_TRUE(SameEvents(one_by_one, events));
  EXPECT_EQ(events_reader->bytes_read(), events_reader->file_bytes());

  std::string trajs_path = dir + "/trajs.stpq";
  std::vector<TrajRecord> trajs = {SomeTraj(1, 0), SomeTraj(2, 3),
                                   SomeTraj(3, 0), SomeTraj(4, 0),
                                   SomeTraj(5, 1)};
  ASSERT_TRUE(WriteStpqFile(trajs_path, trajs).ok());
  auto whole_trajs = ReadStpqTrajs(trajs_path);
  ASSERT_TRUE(whole_trajs.ok()) << whole_trajs.status().ToString();
  EXPECT_TRUE(SameTrajs(*whole_trajs, trajs));
  std::vector<TrajRecord> ranged_trajs;
  ASSERT_TRUE(ReadAllRanged(trajs_path, &ranged_trajs).ok());
  EXPECT_TRUE(SameTrajs(ranged_trajs, trajs));
  auto trajs_reader = StpqReader::Open(trajs_path, kStpqKindTraj);
  ASSERT_TRUE(trajs_reader.ok());
  std::vector<TrajRecord> trajs_one_by_one;
  offset = kStpqHeaderBytes;
  for (const TrajRecord& r : trajs) {
    uint64_t end = offset + StpqRecordBytes(r);
    ASSERT_TRUE(
        trajs_reader->ReadRecordsAt(offset, end, 1, &trajs_one_by_one).ok());
    offset = end;
  }
  EXPECT_TRUE(SameTrajs(trajs_one_by_one, trajs));
  EXPECT_EQ(trajs_reader->bytes_read(), trajs_reader->file_bytes());
}

// ---- `.stix` sidecar: a damaged index must be rejected by Open's
// validation (InvalidArgument), leaving the planner to fall back to a
// linear scan of the intact .stpq. The full mutation matrix lives in
// stix_test.cc; this spot-checks the reader-facing contract.

TEST(StpqCorruptionTest, StixBadMagicIsInvalidArgument) {
  std::string dir = TempDir("stixmagic");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  bytes[0] = 'Q';
  Dump(stix, bytes);
  auto index = StixIndex::Open(stix, path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  // The data file itself is untouched and still loads.
  EXPECT_TRUE(ReadStpqEvents(path).ok());
}

TEST(StpqCorruptionTest, StixTruncationIsInvalidArgument) {
  std::string dir = TempDir("stixtrunc");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  Dump(stix, bytes.substr(0, bytes.size() / 3));
  auto index = StixIndex::Open(stix, path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
}

TEST(StpqCorruptionTest, StixStaleAfterSourceRewriteIsInvalidArgument) {
  std::string dir = TempDir("stixstale");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(60)).ok());  // invalidates
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(index.status().message().find("stale"), std::string::npos);
}

}  // namespace
}  // namespace st4ml
