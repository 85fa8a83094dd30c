#ifndef ST4ML_STORAGE_STPQ_H_
#define ST4ML_STORAGE_STPQ_H_

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "index/stbox.h"
#include "storage/records.h"

namespace st4ml {

/// STPQ ("spatio-temporal parquet") — the repo's columnar-file stand-in: a
/// flat binary file of records with a magic header and a record-kind tag.
/// One file per engine partition; a sidecar text file carries per-file ST
/// envelopes so the selection stage can prune whole files without opening
/// them (the paper's on-disk metadata).
///
/// Layout: "STPQ1" | kind u8 (0 events, 1 trajectories) | count u64 | records.
///   EventRecord: id i64, x f64, y f64, time i64, attr_len u32, attr bytes.
///   TrajRecord:  id i64, npoints u64, npoints x (x f64, y f64, time i64).
/// Native-endian: these files never leave the machine that wrote them.

inline constexpr char kStpqMagic[5] = {'S', 'T', 'P', 'Q', '1'};
inline constexpr uint8_t kStpqKindEvent = 0;
inline constexpr uint8_t kStpqKindTraj = 1;

/// Bytes before the first record: magic, kind tag, record count. This is
/// offset 0 of record 0 — the base the `.stix` sidecar's record-offset
/// table is expressed against.
inline constexpr uint64_t kStpqHeaderBytes = sizeof(kStpqMagic) + 1 + 8;

/// The record-kind tag of an STPQ file, from its header alone (Corruption
/// on a bad magic). Lets kind-agnostic tooling (st4ml_index) dispatch
/// without guessing.
StatusOr<uint8_t> ReadStpqKind(const std::string& path);

/// Wire size of an event with an empty attr: id, x, y, time, attr_len.
inline constexpr uint64_t kStpqMinEventBytes = 8 + 8 + 8 + 8 + 4;

/// Serialized size of one record — the unit `bytes_selected` counts in.
inline uint64_t StpqRecordBytes(const EventRecord& r) {
  return kStpqMinEventBytes + r.attr.size();
}
inline uint64_t StpqRecordBytes(const TrajRecord& r) {
  return 8 + 8 + static_cast<uint64_t>(r.points.size()) * 24;
}

/// Bounds-checked decoding over bytes already in memory: every read checks
/// the bytes left first, so a short buffer fails a record and never reads
/// past its end.
class StpqCursor {
 public:
  StpqCursor(const char* data, size_t size) : pos_(data), end_(data + size) {}

  template <typename T>
  bool Read(T* value) {
    return Take(sizeof(*value), value);
  }
  bool Take(size_t n, void* out) {
    const char* bytes = nullptr;
    if (!Skip(n, &bytes)) return false;
    std::memcpy(out, bytes, n);
    return true;
  }
  /// Points *bytes at the next `n` bytes and steps past them.
  bool Skip(size_t n, const char** bytes) {
    if (remaining() < n) return false;
    *bytes = pos_;
    pos_ += n;
    return true;
  }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

 private:
  const char* pos_;
  const char* end_;
};

/// The event wire encoding, the one codec behind `.stpq` records and WAL
/// frame payloads. EncodeStpqRecord appends `r`'s bytes to `out`.
/// DecodeStpqRecord reads one record at `in` and steps past it; bytes that
/// end early, or a length that overruns them, are Corruption naming `path`.
void EncodeStpqRecord(const EventRecord& r, std::string* out);
Status DecodeStpqRecord(StpqCursor& in, const std::string& path,
                        EventRecord* r);

/// Writers and readers take an optional `io_bytes` accumulator: when
/// non-null, the file size written (or read) is ADDED to it, so callers
/// that own an ExecutionContext can feed the engine's STPQ I/O counters
/// while the storage layer stays engine-agnostic.
///
/// Every read goes through StpqReader: one read call per covering span
/// (the whole record body, for ReadAll), into a buffer bounded by the file
/// size, decoding the records from memory with every length checked
/// against the bytes actually read.
Status WriteStpqFile(const std::string& path,
                     const std::vector<EventRecord>& records,
                     uint64_t* io_bytes = nullptr);
Status WriteStpqFile(const std::string& path,
                     const std::vector<TrajRecord>& records,
                     uint64_t* io_bytes = nullptr);

/// Reads every record of the file at `path`: StpqReader::Open, then
/// ReadAll through that one descriptor.
template <typename RecordT>
StatusOr<std::vector<RecordT>> ReadStpqFile(const std::string& path,
                                            uint64_t* io_bytes = nullptr);

/// The record-kind tag STPQ stores `RecordT` under.
template <typename RecordT>
constexpr uint8_t StpqKindOf() {
  static_assert(std::is_same_v<RecordT, EventRecord> ||
                    std::is_same_v<RecordT, TrajRecord>,
                "STPQ stores EventRecord or TrajRecord");
  return std::is_same_v<RecordT, EventRecord> ? kStpqKindEvent
                                              : kStpqKindTraj;
}

/// What a `.stix` sidecar is keyed to: the source file's size, its mtime
/// stamp (FileMtimeStamp's units) and an FNV-1a fingerprint of its header
/// bytes, which catches a same-size rewrite landing within one mtime tick.
struct StpqIdentity {
  uint64_t size = 0;
  int64_t mtime_stamp = 0;
  uint64_t header_fingerprint = 0;

  bool operator==(const StpqIdentity&) const = default;
};

/// The identity of the file at `path`, from one open: fstat for size and
/// mtime, one read for the header. The sidecar builder stamps this, and
/// StpqReader::Open computes the same value for the validator to check,
/// so both sides share one definition. NotFound if the file is missing,
/// IOError if it cannot be read or holds less than a full header.
StatusOr<StpqIdentity> ReadStpqIdentity(const std::string& path);

/// Stat-based mtime stamp of one file in std::filesystem::file_time_type
/// ticks — the unit StpqIdentity::mtime_stamp uses, whether it came from
/// this path-based stat or from StpqReader's fstat. An unreadable mtime is
/// an ERROR, never stamp 0: a zero stamp would validate against any
/// sidecar built from an equally unreadable state.
StatusOr<int64_t> FileMtimeStamp(const std::string& path);

/// FNV-1a over the first kStpqHeaderBytes of `stpq_path` — the content half
/// of the sidecar invalidation key. Errors if the header can't be read.
StatusOr<uint64_t> StpqHeaderFingerprint(const std::string& stpq_path);

/// One run of consecutive records: `count` records filling exactly the
/// bytes [offset, end_offset) of the file.
struct StpqRun {
  uint64_t offset = 0;
  uint64_t end_offset = 0;
  uint64_t count = 0;
};

/// Runs whose gap (the bytes between one run's end and the next run's
/// offset) is at most this many bytes share one covering read: reading
/// the gap costs less than another read call. Measured on the apps_cold
/// benchmark (EXPERIMENTS.md, "Covering reads").
inline constexpr uint64_t kStpqReadHoleLimit = 4096;

/// Ranged record reads, for index-directed selection. Open opens the file
/// ONCE: it fstats the descriptor, reads and checks the header, and keeps
/// the file's StpqIdentity, so the `.stix` sidecar can be validated against
/// the very file the records then come from. ReadRuns takes the runs the
/// mmap'd sidecar resolves leaf hits into (ascending, non-overlapping) and
/// groups them into covering spans, split wherever a gap exceeds
/// kStpqReadHoleLimit. Each span costs one read call into one buffer; every
/// run then decodes from that buffer at its own offset and must consume
/// EXACTLY its promised bytes, so a sidecar that disagrees with its file
/// surfaces as Corruption, never as silently wrong records. Each ReadRuns
/// (or ReadAll) call fires the kStpqRead fault site once. bytes_read()
/// accounts the header plus every span's bytes, gap bytes included — the
/// bytes actually read, in ReadStpqFile's io_bytes currency; read_calls()
/// counts the span reads.
class StpqReader {
 public:
  static StatusOr<StpqReader> Open(const std::string& path,
                                   uint8_t expected_kind);

  StpqReader() = default;
  ~StpqReader();
  StpqReader(StpqReader&& other) noexcept;
  StpqReader& operator=(StpqReader&& other) noexcept;
  StpqReader(const StpqReader&) = delete;
  StpqReader& operator=(const StpqReader&) = delete;

  /// Appends the records of every run in `runs` to `out`, in run order.
  template <typename RecordT>
  Status ReadRuns(std::span<const StpqRun> runs, std::vector<RecordT>* out);

  /// Appends every record of the file to `out`: ReadRuns over the one run
  /// from the end of the header to the end of the file, with the header's
  /// count, so the records must consume exactly the file's record bytes — a
  /// corrupt count or trailing bytes are Corruption, never records silently
  /// dropped. The reserve is clamped to what the file could hold, so a
  /// corrupt count cannot force a giant allocation. The body buffer is
  /// freed before return.
  template <typename RecordT>
  Status ReadAll(std::vector<RecordT>* out);

  /// The one-run case of ReadRuns.
  template <typename RecordT>
  Status ReadRecordsAt(uint64_t offset, uint64_t end_offset, uint64_t count,
                       std::vector<RecordT>* out) {
    const StpqRun run{offset, end_offset, count};
    return ReadRuns(std::span(&run, 1), out);
  }

  /// The header's record count (untrusted until records deserialize).
  uint64_t record_count() const { return record_count_; }
  uint64_t file_bytes() const { return identity_.size; }
  const StpqIdentity& identity() const { return identity_; }
  /// Header + covering-span bytes read so far.
  uint64_t bytes_read() const { return bytes_read_; }
  /// Covering-span read calls so far.
  uint64_t read_calls() const { return read_calls_; }

 private:
  friend StatusOr<StpqIdentity> ReadStpqIdentity(const std::string& path);
  friend StatusOr<uint8_t> ReadStpqKind(const std::string& path);
  static StatusOr<StpqReader> OpenFile(const std::string& path,
                                       std::string* header);
  Status ReadSpan(uint64_t begin, uint64_t end, size_t* got);

  int fd_ = -1;
  std::string path_;
  StpqIdentity identity_;
  uint64_t record_count_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t read_calls_ = 0;
  std::unique_ptr<char[]> buf_;
  uint64_t buf_bytes_ = 0;
};

/// Paths of every *.stpq file directly inside `dir`, sorted by name.
std::vector<std::string> ListStpqFiles(const std::string& dir);

/// Size in bytes of one file, for load accounting; 0 if unreadable.
uint64_t FileSizeBytes(const std::string& path);

/// One part of a dataset directory: which file, the ST envelope of its
/// content (the union of its records' valid envelopes), and how many records
/// it holds.
struct StpqPartMeta {
  std::string file;  // name relative to the data directory
  STBox box;
  uint64_t count = 0;
};

/// The part list of a dataset directory (`<dir>/index.meta`), whether it was
/// batch-built or streamed — the metadata file selection prunes against, and
/// the commit point of streaming ingestion (DESIGN.md §12-13). Batch writers
/// publish generation 0 with no consumed names; each compaction publishes the
/// next generation, listing every live part plus the WAL segment names
/// (not paths) already folded into them, which readers and replay skip.
struct StpqManifest {
  uint64_t generation = 0;
  std::vector<StpqPartMeta> parts;
  std::vector<std::string> consumed;
};

/// `stpq-meta v2` text: the header, one `gen` line, one `part` line per part
/// and one `consumed` line per segment name, then `fnv1a <16 hex>` over every
/// byte before it. Published atomically (temp + fsync + rename + dir fsync),
/// so returning Ok IS the commit. InvalidArgument for a name that is not a
/// plain file name.
Status WriteStpqMeta(const std::string& path, const StpqManifest& manifest);

/// NotFound when no file exists at `path`. Corruption — failing closed, never
/// a shorter or longer part list — on a checksum mismatch, a missing checksum
/// line, an older format version, a malformed line, or a part or consumed
/// name that is not a plain file name (no `/`, not `.` or `..`).
StatusOr<StpqManifest> ReadStpqMeta(const std::string& path);

}  // namespace st4ml

#endif  // ST4ML_STORAGE_STPQ_H_
