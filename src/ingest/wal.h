#ifndef ST4ML_INGEST_WAL_H_
#define ST4ML_INGEST_WAL_H_

// The write-ahead staging format behind streaming ingestion (DESIGN.md §13,
// ROADMAP #4). Appended records land in `s<seq>.stwal` segments, one active
// at a time and sealed by record count: a tiny header ("STWL1" + record-kind
// tag) followed by CRC32-framed records in arrival order, whatever their
// times. An ACTIVE segment carries the extra `.open` suffix; sealing fsyncs
// the bytes and renames away the suffix, so the sealed name itself asserts
// "fully durable, fully framed".
//
// Frame layout (native-endian, like STPQ):
//   u32 payload_len | u32 crc32(payload) | payload
//   payload = one record in the STPQ event codec (EncodeStpqRecord /
//             DecodeStpqRecord, src/storage/stpq.h)
//
// Durability contract:
//  - Ingestor::AppendBatch acks once write(2) has accepted every frame of
//    the batch: the records survive a process crash (the kernel owns the
//    bytes) but only a SEAL's fsync makes them power-loss durable. A failed
//    batch is truncated back to its pre-batch watermark.
//  - A crash mid-append can only tear the LAST frame of an `.open`
//    segment; the CRC framing finds the torn tail and replay stops exactly
//    at the last complete frame — every acked-and-completed record before
//    it is recovered, the unacked torn frame is dropped.
//  - The segment name picks the read mode: a sealed segment must parse end
//    to end (a bad frame there is Corruption, never silently skipped), for
//    replay, compaction and the merged Select alike.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/records.h"

namespace st4ml {

inline constexpr char kWalMagic[5] = {'S', 'T', 'W', 'L', '1'};
/// Magic + the STPQ record-kind tag (events, for now).
inline constexpr uint64_t kWalHeaderBytes = sizeof(kWalMagic) + 1;
/// Bytes of framing per record on top of the payload: length + CRC32.
inline constexpr uint64_t kWalFrameOverhead = 4 + 4;
/// Suffixes of a sealed segment and of an ACTIVE (still appendable) one.
inline constexpr std::string_view kWalSealedSuffix = ".stwal";
inline constexpr std::string_view kWalOpenSuffix = ".open";

/// True for an active segment's name or path (`<sealed name>.open`).
inline bool IsOpenWalSegment(std::string_view path) {
  return path.ends_with(kWalOpenSuffix);
}

/// The sealed name of a segment name or path: an active segment's `.open`
/// suffix dropped, anything else unchanged. A view into `path`.
inline std::string_view WalSealedName(std::string_view path) {
  if (IsOpenWalSegment(path)) path.remove_suffix(kWalOpenSuffix.size());
  return path;
}

/// True for a WAL segment's name or path, sealed or active.
inline bool IsWalSegment(std::string_view path) {
  return WalSealedName(path).ends_with(kWalSealedSuffix);
}

/// CRC32 (reflected, polynomial 0xEDB88320 — the zlib polynomial) over
/// `len` bytes. Table-based, no dependencies.
uint32_t WalCrc32(const void* data, size_t len);

/// Appends one complete frame (length, CRC, payload) for `r` to `out`.
void AppendWalFrame(std::string* out, const EventRecord& r);

/// Single-writer appender for one segment. Created against the SEALED path;
/// bytes accumulate under `<path>.open` and Seal publishes the sealed name.
class WalWriter {
 public:
  static StatusOr<WalWriter> Create(const std::string& sealed_path);

  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Writes pre-built frames (AppendWalFrame output) in ONE write call.
  /// `n` is how many records `frames` holds. Fires the wal/append fault
  /// site first. On an error some bytes may have landed: the caller rolls
  /// back with TruncateTo.
  Status AppendFrames(const std::string& frames, uint64_t n);

  /// Rolls the segment back to an earlier watermark: ftruncate to
  /// `byte_count`, rewind the file offset there, and reset the counters.
  /// AppendBatch uses this to un-stage a batch whose write failed, keeping
  /// every append all-or-nothing.
  Status TruncateTo(uint64_t byte_count, uint64_t record_count);

  /// fsync + rename to the sealed name + fsync the directory. Fires the
  /// wal/seal fault site first; on any failure the segment simply stays
  /// `.open` (still replayable, still appendable). After Ok the writer is
  /// closed and unusable.
  Status Seal();

  /// Closes the descriptor WITHOUT fsync or rename — exactly what a crash
  /// leaves behind. The destructor does the same, so dropping an Ingestor
  /// without Flush IS the crash simulation the recovery tests lean on.
  void Abandon();

  bool open() const { return fd_ >= 0; }
  uint64_t record_count() const { return record_count_; }
  uint64_t byte_count() const { return byte_count_; }
  const std::string& sealed_path() const { return sealed_path_; }
  const std::string& open_path() const { return open_path_; }

 private:
  int fd_ = -1;
  std::string sealed_path_;
  std::string open_path_;
  uint64_t record_count_ = 0;
  uint64_t byte_count_ = 0;
};

/// One segment's replayed content.
struct WalReadResult {
  std::vector<EventRecord> records;
  /// True when the read stopped early at an incomplete or CRC-failing
  /// trailing frame (only legal for tolerant reads of an active tail).
  bool torn_tail = false;
  /// Byte offset just past the last COMPLETE frame — the truncation point
  /// recovery uses to drop a torn tail before re-sealing.
  uint64_t good_bytes = 0;
};

/// Reads every complete frame of the segment at `path`; its name picks the
/// mode. A sealed `.stwal` is read strictly: any torn or CRC-failing frame
/// is Corruption. An active `.stwal.open` (a live appender's tail, or a
/// crash's) is read tolerantly: the read stops at the first bad frame and
/// reports it via `torn_tail`, and a short or invalid HEADER — what a crash
/// between creating the file and flushing its header leaves — is one
/// fully-torn empty segment (`torn_tail=true`, `good_bytes=0`) so recovery
/// can clean it up instead of refusing to open the directory. A Seal may
/// rename a listed `.open` segment before the read: a missing `.open` file
/// is read once more under its sealed name, strictly. In both modes a frame
/// whose CRC matches must decode to exactly one record filling its
/// payload, or the read is Corruption.
StatusOr<WalReadResult> ReadWalSegment(const std::string& path);

/// Paths of every WAL segment directly inside `wal_dir` — sealed `.stwal`
/// first, then active `.stwal.open`, each group sorted by name (names embed
/// a zero-padded sequence number, so name order IS append order).
std::vector<std::string> ListWalSegments(const std::string& wal_dir);

}  // namespace st4ml

#endif  // ST4ML_INGEST_WAL_H_
