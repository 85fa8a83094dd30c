#ifndef ST4ML_STORAGE_STPQ_H_
#define ST4ML_STORAGE_STPQ_H_

#include <cstdint>
#include <filesystem>
#include <fstream>
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

/// Serialized size of one record — the unit `bytes_selected` counts in.
inline uint64_t StpqRecordBytes(const EventRecord& r) {
  return 8 + 8 + 8 + 8 + 4 + r.attr.size();
}
inline uint64_t StpqRecordBytes(const TrajRecord& r) {
  return 8 + 8 + static_cast<uint64_t>(r.points.size()) * 24;
}

/// Writers and readers take an optional `io_bytes` accumulator: when
/// non-null, the file size written (or read) is ADDED to it, so callers
/// that own an ExecutionContext can feed the engine's STPQ I/O counters
/// while the storage layer stays engine-agnostic.
///
/// Readers make one read call per file (the whole-file readers) or per
/// ranged run (StpqReader), into a buffer bounded by the file size, and
/// decode the records from memory with every length checked against the
/// bytes actually read.
Status WriteStpqFile(const std::string& path,
                     const std::vector<EventRecord>& records,
                     uint64_t* io_bytes = nullptr);
Status WriteStpqFile(const std::string& path,
                     const std::vector<TrajRecord>& records,
                     uint64_t* io_bytes = nullptr);

StatusOr<std::vector<EventRecord>> ReadStpqEvents(const std::string& path,
                                                  uint64_t* io_bytes = nullptr);
StatusOr<std::vector<TrajRecord>> ReadStpqTrajs(const std::string& path,
                                                uint64_t* io_bytes = nullptr);

/// Record-type-generic read, for templated callers like the selector.
template <typename RecordT>
StatusOr<std::vector<RecordT>> ReadStpqFile(const std::string& path,
                                            uint64_t* io_bytes = nullptr) {
  if constexpr (std::is_same_v<RecordT, EventRecord>) {
    return ReadStpqEvents(path, io_bytes);
  } else {
    static_assert(std::is_same_v<RecordT, TrajRecord>,
                  "STPQ stores EventRecord or TrajRecord");
    return ReadStpqTrajs(path, io_bytes);
  }
}

/// Ranged record reads, for index-directed selection: Open validates the
/// header once (firing the same kStpqRead fault site as the full readers),
/// then ReadRecordsAt parses exactly the records inside one
/// [offset, end_offset) byte run — the unit the mmap'd `.stix` sidecar
/// resolves leaf hits into — so a cold indexed selection reads only the
/// bytes of matching records instead of the whole file. Offsets come from
/// the sidecar's record-offset table; ReadRecordsAt re-verifies that the
/// parsed records consume EXACTLY the promised byte run, so a sidecar that
/// disagrees with its file surfaces as Corruption, never as silently wrong
/// records. bytes_read() accounts the header plus every run's bytes, the
/// same currency as the full readers' io_bytes.
class StpqReader {
 public:
  static StatusOr<StpqReader> Open(const std::string& path,
                                   uint8_t expected_kind);

  StpqReader() = default;
  StpqReader(StpqReader&&) = default;
  StpqReader& operator=(StpqReader&&) = default;

  Status ReadEventsAt(uint64_t offset, uint64_t end_offset, uint64_t count,
                      std::vector<EventRecord>* out);
  Status ReadTrajsAt(uint64_t offset, uint64_t end_offset, uint64_t count,
                     std::vector<TrajRecord>* out);

  template <typename RecordT>
  Status ReadRecordsAt(uint64_t offset, uint64_t end_offset, uint64_t count,
                       std::vector<RecordT>* out) {
    if constexpr (std::is_same_v<RecordT, EventRecord>) {
      return ReadEventsAt(offset, end_offset, count, out);
    } else {
      static_assert(std::is_same_v<RecordT, TrajRecord>,
                    "STPQ stores EventRecord or TrajRecord");
      return ReadTrajsAt(offset, end_offset, count, out);
    }
  }

  /// The header's record count (untrusted until records deserialize).
  uint64_t record_count() const { return record_count_; }
  uint64_t file_bytes() const { return file_bytes_; }
  /// Header + run bytes consumed so far.
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  Status CheckRange(uint64_t offset, uint64_t end_offset) const;
  template <typename RecordT>
  Status ReadRunAt(uint64_t offset, uint64_t end_offset, uint64_t count,
                   std::vector<RecordT>* out);

  std::ifstream in_;
  std::string path_;
  uint64_t file_bytes_ = 0;
  uint64_t record_count_ = 0;
  uint64_t bytes_read_ = 0;
};

/// Paths of every *.stpq file directly inside `dir`, sorted by name.
std::vector<std::string> ListStpqFiles(const std::string& dir);

/// Size in bytes of one file, for load accounting; 0 if unreadable.
uint64_t FileSizeBytes(const std::string& path);

/// One line of an STPQ directory's metadata sidecar: which file, the tight
/// ST envelope of its content, and how many records it holds.
struct StpqPartMeta {
  std::string file;  // name relative to the data directory
  STBox box;
  uint64_t count = 0;
};

Status WriteStpqMeta(const std::string& path,
                     const std::vector<StpqPartMeta>& parts);
StatusOr<std::vector<StpqPartMeta>> ReadStpqMeta(const std::string& path);

}  // namespace st4ml

#endif  // ST4ML_STORAGE_STPQ_H_
