// Corrupt-input matrix for the STPQ readers: every malformed file must come
// back as a Corruption/NotFound Status — never a throw, a crash, or a
// header-driven giant allocation — from both decode paths: the whole-file
// readers and StpqReader's ranged reads. The directory's part list,
// index.meta, fails closed the same way.

#include "storage/stpq.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/execution_context.h"
#include "index/stix.h"
#include "ingest/ingestor.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"

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

// A count lowered below the records the file holds: both readers must
// reject the bytes left over, not return the first 9 of 10 records.
TEST(StpqCorruptionTest, LoweredHeaderCountIsCorruption) {
  std::string dir = TempDir("lowered");
  std::string path = dir + "/lowered.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(10)).ok());
  std::string bytes = Slurp(path);
  uint64_t count = 0;
  std::memcpy(&count, &bytes[kCountOffset], sizeof(count));
  ASSERT_EQ(count, 10u);
  count = 9;
  std::memcpy(&bytes[kCountOffset], &count, sizeof(count));
  Dump(path, bytes);
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption,
                                   "record range mismatch");
}

TEST(StpqCorruptionTest, TrailingBytesAfterLastRecordIsCorruption) {
  std::string dir = TempDir("trailing");
  std::string path = dir + "/trailing.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(10)).ok());
  Dump(path, Slurp(path) + std::string(5, '\0'));
  ExpectBothPathsFail<EventRecord>(path, Status::Code::kCorruption,
                                   "record range mismatch");
}

// ---- index.meta, the one part list of a dataset directory: checksummed,
// strictly parsed, failing closed — never a shorter or longer part list.

// Seals a hand-written manifest body the way WriteStpqMeta does: a last
// line `fnv1a <16 hex>` over every byte before it.
std::string SealMeta(const std::string& body) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : body) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  char line[32];
  std::snprintf(line, sizeof(line), "fnv1a %016" PRIx64 "\n", hash);
  return body + line;
}

void ExpectMetaCorruption(const std::string& path, const std::string& what) {
  auto loaded = ReadStpqMeta(path);
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption)
      << what << ": " << loaded.status().ToString();
}

TEST(StpqCorruptionTest, BadMetaHeaderIsCorruption) {
  std::string dir = TempDir("meta");
  std::string path = dir + "/idx.meta";
  Dump(path, "stpq-meta v999\n");
  ExpectMetaCorruption(path, "unknown version");
}

TEST(StpqCorruptionTest, BadMetaLineIsCorruption) {
  std::string dir = TempDir("metaline");
  std::string path = dir + "/idx.meta";
  // Checksummed, so the parser itself must reject the line.
  Dump(path, SealMeta("stpq-meta v2\ngen 0\n"
                      "part part-00000.stpq not-a-number\n"));
  ExpectMetaCorruption(path, "short part line");
  Dump(path, SealMeta("stpq-meta v2\ngen 0\n"
                      "part part-00000.stpq 0 0 1 1 0 1 3 extra\n"));
  ExpectMetaCorruption(path, "long part line");
  Dump(path, SealMeta("stpq-meta v2\npart part-00000.stpq 0 0 1 1 0 1 3\n"));
  ExpectMetaCorruption(path, "no gen line");
}

TEST(StpqCorruptionTest, OlderMetaVersionsAreCorruptionAskingForRebuild) {
  std::string dir = TempDir("metav1");
  std::string path = dir + "/index.meta";
  for (const std::string header : {"stpq-meta v1", "st4ml-ingest v1"}) {
    Dump(path, header + "\npart-00000.stpq 0 0 1 1 0 1 3\n");
    auto loaded = ReadStpqMeta(path);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
    EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(StpqCorruptionTest, MissingMetaChecksumLineIsCorruption) {
  std::string dir = TempDir("metasum");
  std::string path = dir + "/index.meta";
  StpqManifest meta;
  meta.parts.resize(1);
  meta.parts[0].file = "part-00000.stpq";
  ASSERT_TRUE(WriteStpqMeta(path, meta).ok());
  const std::string sealed = Slurp(path);
  const size_t last = sealed.rfind('\n', sealed.size() - 2) + 1;
  Dump(path, sealed.substr(0, last));
  ExpectMetaCorruption(path, "checksum line dropped");
  Dump(path, sealed.substr(0, sealed.size() - 1));
  ExpectMetaCorruption(path, "final newline dropped");
  Dump(path, sealed + "part part-00001.stpq 0 0 1 1 0 1 3\n");
  ExpectMetaCorruption(path, "line appended after the checksum");
}

TEST(StpqCorruptionTest, MetaNamesOutsideTheDirectoryAreCorruption) {
  std::string dir = TempDir("metaname");
  std::string path = dir + "/index.meta";
  for (const std::string name : {"../x.stpq", "sub/x.stpq", "/x.stpq", ".",
                                 ".."}) {
    Dump(path, SealMeta("stpq-meta v2\ngen 0\npart " + name +
                        " 0 0 1 1 0 1 3\n"));
    ExpectMetaCorruption(path, "part " + name);
    Dump(path, SealMeta("stpq-meta v2\ngen 1\nconsumed " + name + "\n"));
    ExpectMetaCorruption(path, "consumed " + name);
    // The writer refuses to publish what its reader would reject.
    StpqManifest meta;
    meta.parts.resize(1);
    meta.parts[0].file = name;
    EXPECT_EQ(WriteStpqMeta(dir + "/written.meta", meta).code(),
              Status::Code::kInvalidArgument)
        << name;
  }
}

TEST(StpqCorruptionTest, EverySingleByteChangeToMetaIsCorruption) {
  std::string dir = TempDir("metaflip");
  std::string path = dir + "/index.meta";
  StpqManifest meta;
  meta.generation = 3;
  for (int p = 0; p < 3; ++p) {
    StpqPartMeta part;
    part.file = "ingest-g00000" + std::to_string(p + 1) + "-b7.stpq";
    part.box = STBox(Mbr(p - 0.25, -1.5, p + 2.75, 1e-3), Duration(p, 3600));
    part.count = 100 + p;
    meta.parts.push_back(part);
  }
  meta.consumed = {"s00000001-b7.stwal", "s00000002-b7.stwal"};
  ASSERT_TRUE(WriteStpqMeta(path, meta).ok());
  const std::string sealed = Slurp(path);
  ASSERT_TRUE(ReadStpqMeta(path).ok());
  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    for (int delta : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF}) {
      std::string mutated = sealed;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      Dump(path, mutated);
      auto loaded = ReadStpqMeta(path);
      ASSERT_FALSE(loaded.ok()) << "byte " << pos << " ^ " << delta;
      ASSERT_EQ(loaded.status().code(), Status::Code::kCorruption)
          << "byte " << pos << " ^ " << delta << ": "
          << loaded.status().ToString();
    }
  }
}

TEST(StpqCorruptionTest, ShrunkPartBoxIsCorruptionNotFewerRecords) {
  std::string dir = TempDir("metashrunk");
  const std::string meta = dir + "/index.meta";
  const std::vector<EventRecord> events = SomeEvents(269);
  auto ctx = ExecutionContext::Create(2);
  TSTRPartitioner partitioner(2, 2);
  ASSERT_TRUE(BuildOnDiskIndex(Dataset<EventRecord>::Parallelize(ctx, events, 2),
                               &partitioner, dir, meta)
                  .ok());

  // Shrink the first part's box to its lower-left corner: the line stays
  // well-formed, only the checksum can tell. A query just right of that
  // corner would prune the part and silently drop its records.
  std::string text = Slurp(meta);
  const size_t line = text.find("\npart ") + 1;
  const size_t end = text.find('\n', line);
  std::vector<std::string> f;
  for (size_t b = line; b <= end;) {
    const size_t e = std::min(text.find(' ', b), end);
    f.push_back(text.substr(b, e - b));
    b = e + 1;
  }
  ASSERT_EQ(f.size(), 9u);
  const double x_min = std::stod(f[2]);
  const SelectQuery query = SelectQuery::FromBox(
      STBox(Mbr(std::nextafter(x_min, 11.0), -1, 11, 11), Duration(-1, 1001)));
  const auto expected = static_cast<size_t>(std::count_if(
      events.begin(), events.end(),
      [&](const EventRecord& r) { return r.x > x_min; }));
  {
    Selector<EventRecord> selector(ctx, query);
    auto selected = selector.Select(dir, meta);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    ASSERT_EQ(selected->Count(), expected);
  }
  f[4] = f[2];  // x_max = x_min
  f[5] = f[3];  // y_max = y_min
  std::string shrunk = f[0];
  for (size_t i = 1; i < f.size(); ++i) shrunk += " " + f[i];
  text.replace(line, end - line, shrunk);
  Dump(meta, text);

  Selector<EventRecord> selector(ctx, query);
  auto selected = selector.Select(dir, meta);
  ASSERT_FALSE(selected.ok()) << "selected " << selected->Count() << " of "
                              << expected;
  EXPECT_EQ(selected.status().code(), Status::Code::kCorruption);
  IngestorOptions options;
  options.start_compactor = false;
  auto ingestor = Ingestor::Open(dir, options);
  ASSERT_FALSE(ingestor.ok());
  EXPECT_EQ(ingestor.status().code(), Status::Code::kCorruption);
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
  auto loaded = ReadStpqFile<EventRecord>(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  fs::remove_all(path + ".tmp");
}

TEST(StpqCorruptionTest, SuccessfulPublishLeavesNoTmpDebris) {
  std::string dir = TempDir("pubclean");
  std::string path = dir + "/part.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(5)).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  ASSERT_TRUE(WriteIndexedPart(dir, "part.stpq", SomeEvents(5),
                               RetryPolicy::None(), nullptr)
                  .ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(StixPathFor(path) + ".tmp"));
}

TEST(StpqCorruptionTest, TornStixPublishLeavesOldSidecarIntact) {
  std::string dir = TempDir("tornstix");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(
      WriteIndexedPart(dir, "part.stpq", events, RetryPolicy::None(), nullptr)
          .ok());
  std::string stix = StixPathFor(path);
  std::string before = Slurp(stix);

  fs::create_directories(stix + ".tmp");
  ASSERT_FALSE(
      WriteIndexedPart(dir, "part.stpq", events, RetryPolicy::None(), nullptr)
          .ok());
  EXPECT_EQ(Slurp(stix), before);
  // The surviving sidecar is whole: it passes every structural check and
  // is refused only as stale, since the part was rewritten before the
  // sidecar publish failed. A Select takes the scan plan for it.
  auto reopened = StixIndex::Open(stix, path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("stale stix sidecar"),
            std::string::npos)
      << reopened.status().ToString();
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
  auto whole_events = ReadStpqFile<EventRecord>(events_path);
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
  auto whole_trajs = ReadStpqFile<TrajRecord>(trajs_path);
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

// ---- covering spans: several runs decode from one read, and each run must
// still consume exactly its own byte range.

// Byte offset of every record (n + 1 entries), as the sidecar stores them.
std::vector<uint64_t> RecordOffsets(const std::vector<EventRecord>& events) {
  std::vector<uint64_t> offsets = {kStpqHeaderBytes};
  for (const EventRecord& r : events) {
    offsets.push_back(offsets.back() + StpqRecordBytes(r));
  }
  return offsets;
}

// The run of records [first, last).
StpqRun RunOf(const std::vector<uint64_t>& offsets, size_t first,
              size_t last) {
  return StpqRun{offsets[first], offsets[last], last - first};
}

TEST(StpqCorruptionTest, SpanDecodesEveryRunFromOneRead) {
  std::string dir = TempDir("spanok");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(20);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  auto offsets = RecordOffsets(events);
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<StpqRun> runs = {RunOf(offsets, 1, 3), RunOf(offsets, 5, 6),
                               RunOf(offsets, 9, 13)};
  std::vector<EventRecord> out;
  ASSERT_TRUE(reader->ReadRuns(runs, &out).ok());
  std::vector<EventRecord> want = {events[1], events[2],  events[5],
                                   events[9], events[10], events[11],
                                   events[12]};
  EXPECT_TRUE(SameEvents(out, want));
  EXPECT_EQ(reader->read_calls(), 1u);
  // Gap bytes inside the span count as read.
  EXPECT_EQ(reader->bytes_read(), kStpqHeaderBytes + offsets[13] - offsets[1]);
}

TEST(StpqCorruptionTest, SpanRunsThatOverlapOrGoBackwardsAreCorruption) {
  std::string dir = TempDir("spanorder");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(10);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  auto offsets = RecordOffsets(events);
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok());
  const std::vector<std::vector<StpqRun>> bad = {
      {RunOf(offsets, 0, 3), RunOf(offsets, 2, 4)},   // overlap
      {RunOf(offsets, 5, 6), RunOf(offsets, 2, 3)},   // backwards
      {RunOf(offsets, 4, 5), RunOf(offsets, 4, 5)},   // the same run twice
      {RunOf(offsets, 1, 2), RunOf(offsets, 6, 7), RunOf(offsets, 3, 4)},
  };
  for (const auto& runs : bad) {
    std::vector<EventRecord> out;
    Status read = reader->ReadRuns(runs, &out);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.code(), Status::Code::kCorruption) << read.ToString();
    EXPECT_TRUE(out.empty()) << "records decoded from disordered runs";
  }
  EXPECT_EQ(reader->read_calls(), 0u);
}

TEST(StpqCorruptionTest, MidSpanRunCountDisagreeingWithItsRangeIsCorruption) {
  std::string dir = TempDir("spancount");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(10);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  auto offsets = RecordOffsets(events);
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok());
  for (uint64_t count : {uint64_t{1}, uint64_t{3}, uint64_t{0}}) {
    // The middle run holds records 3 and 4, but claims `count`.
    std::vector<StpqRun> runs = {RunOf(offsets, 0, 2), RunOf(offsets, 3, 5),
                                 RunOf(offsets, 7, 8)};
    runs[1].count = count;
    std::vector<EventRecord> out;
    Status read = reader->ReadRuns(runs, &out);
    ASSERT_FALSE(read.ok()) << "count " << count;
    EXPECT_EQ(read.code(), Status::Code::kCorruption) << read.ToString();
  }
}

TEST(StpqCorruptionTest, FileTruncatedInsideCoveringSpanIsCorruption) {
  std::string dir = TempDir("spantrunc");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(20);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  auto offsets = RecordOffsets(events);
  std::vector<StpqRun> runs = {RunOf(offsets, 1, 2), RunOf(offsets, 5, 6),
                               RunOf(offsets, 10, 13)};
  const uint64_t cut = offsets[11] + 3;

  // Shrunk after Open: the one read comes back short inside the span.
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok());
  fs::resize_file(path, cut);
  std::vector<EventRecord> out;
  Status read = reader->ReadRuns(runs, &out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), Status::Code::kCorruption) << read.ToString();

  // Shrunk before Open: the runs fail the bounds check up front.
  auto reopened = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reopened.ok());
  out.clear();
  read = reopened->ReadRuns(runs, &out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), Status::Code::kCorruption) << read.ToString();
  EXPECT_TRUE(out.empty());
}

TEST(StpqCorruptionTest, SpanEndingPastEofIsCorruption) {
  std::string dir = TempDir("spaneof");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(8);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  auto offsets = RecordOffsets(events);
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok());
  const uint64_t eof = reader->file_bytes();
  ASSERT_EQ(eof, offsets[8]);
  const std::vector<std::vector<StpqRun>> bad = {
      // The last run's end overshoots EOF.
      {RunOf(offsets, 0, 2), StpqRun{offsets[6], eof + 16, 2}},
      // A whole run beyond EOF.
      {RunOf(offsets, 2, 3), StpqRun{eof + 8, eof + 8 + offsets[1], 1}},
  };
  for (const auto& runs : bad) {
    std::vector<EventRecord> out;
    Status read = reader->ReadRuns(runs, &out);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.code(), Status::Code::kCorruption) << read.ToString();
    EXPECT_TRUE(out.empty());
  }
}

// ---- `.stix` sidecar: a damaged index must be rejected by Open's
// validation (InvalidArgument), leaving the planner to fall back to a
// linear scan of the intact .stpq. The full mutation matrix lives in
// stix_test.cc; this spot-checks the reader-facing contract.

TEST(StpqCorruptionTest, StixBadMagicIsInvalidArgument) {
  std::string dir = TempDir("stixmagic");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(
      WriteIndexedPart(dir, "part.stpq", events, RetryPolicy::None(), nullptr)
          .ok());
  std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  bytes[0] = 'Q';
  Dump(stix, bytes);
  auto index = StixIndex::Open(stix, path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  // The data file itself is untouched and still loads.
  EXPECT_TRUE(ReadStpqFile<EventRecord>(path).ok());
}

TEST(StpqCorruptionTest, StixTruncationIsInvalidArgument) {
  std::string dir = TempDir("stixtrunc");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(
      WriteIndexedPart(dir, "part.stpq", events, RetryPolicy::None(), nullptr)
          .ok());
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
  ASSERT_TRUE(
      WriteIndexedPart(dir, "part.stpq", events, RetryPolicy::None(), nullptr)
          .ok());
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(60)).ok());  // invalidates
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(index.status().message().find("stale"), std::string::npos);
}

}  // namespace
}  // namespace st4ml
