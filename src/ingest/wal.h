#ifndef ST4ML_INGEST_WAL_H_
#define ST4ML_INGEST_WAL_H_

// The write-ahead staging format behind streaming ingestion (DESIGN.md §13,
// ROADMAP #4). Appended records land in time-bucketed `.stwal` segments: a
// tiny header ("STWL1" + record-kind tag) followed by CRC32-framed records
// in the STPQ event wire encoding. An ACTIVE segment carries the extra
// `.open` suffix; sealing fsyncs the bytes and renames away the suffix, so
// the sealed name itself asserts "fully durable, fully framed".
//
// Frame layout (native-endian, like STPQ):
//   u32 payload_len | u32 crc32(payload) | payload
//   payload = id i64, x f64, y f64, time i64, attr_len u32, attr bytes
//
// Durability contract:
//  - Append ACKS once write(2) has accepted the frame: the record survives
//    a process crash (the kernel owns the bytes) but only a SEAL's fsync
//    makes it power-loss durable.
//  - A crash mid-append can only tear the LAST frame of an `.open`
//    segment; the CRC framing finds the torn tail and replay stops exactly
//    at the last complete frame — every acked-and-completed record before
//    it is recovered, the unacked torn frame is dropped.
//  - Sealed segments must parse end to end; a bad frame there is
//    Corruption, never silently skipped.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/records.h"

namespace st4ml {

inline constexpr char kWalMagic[5] = {'S', 'T', 'W', 'L', '1'};
/// Magic + the STPQ record-kind tag (events, for now).
inline constexpr uint64_t kWalHeaderBytes = sizeof(kWalMagic) + 1;
/// Bytes of framing per record on top of the payload: length + CRC32.
inline constexpr uint64_t kWalFrameOverhead = 4 + 4;
/// Suffix an ACTIVE (still appendable) segment carries.
inline constexpr const char* kWalOpenSuffix = ".open";

/// CRC32 (reflected, polynomial 0xEDB88320 — the zlib polynomial) over
/// `len` bytes. Table-based, no dependencies.
uint32_t WalCrc32(const void* data, size_t len);

/// Serializes one record in the STPQ event wire encoding (the WAL frame
/// payload — byte-identical to the record's bytes inside a `.stpq`).
void AppendEventWire(std::string* out, const EventRecord& r);

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

  /// Frames and writes one record. Returning Ok IS the ack: the frame has
  /// been accepted by the kernel. Fires the wal/append fault site first —
  /// an injected failure means the record was never written, never acked.
  Status Append(const EventRecord& r);

  /// Writes pre-built frames (AppendWalFrame output) in ONE write call —
  /// the batched append path. `n` is how many records `frames` holds.
  Status AppendFrames(const std::string& frames, uint64_t n);

  /// Rolls the segment back to an earlier watermark: ftruncate to
  /// `byte_count`, rewind the file offset there, and reset the counters.
  /// The batched append path uses this to un-stage a batch's frames when a
  /// later bucket of the same batch fails, keeping AppendBatch
  /// all-or-nothing.
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
  std::string frame_buf_;  // reused per Append to avoid an alloc per record
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

/// Reads every complete frame of `path`. `strict` (sealed segments) turns
/// any torn or CRC-failing frame into Corruption; tolerant mode (active
/// `.open` tails, and reads racing a live appender) stops at the first bad
/// frame and reports it via `torn_tail`. A short or invalid HEADER — what a
/// crash between creating the file and flushing its header leaves — is
/// Corruption when strict, but in tolerant mode it is one fully-torn empty
/// segment (`torn_tail=true`, `good_bytes=0`) so recovery can clean it up
/// instead of refusing to open the directory.
StatusOr<WalReadResult> ReadWalSegment(const std::string& path, bool strict);

/// Tolerant read of a segment path a reader LISTED earlier. A Seal may
/// rename a listed active segment between the listing and the read: on
/// NotFound for a `.open` path, the sealed name — which holds the same
/// fully-framed bytes — is read once instead. Every other outcome is
/// ReadWalSegment's own.
StatusOr<WalReadResult> ReadListedWalSegment(const std::string& path);

/// Paths of every WAL segment directly inside `wal_dir` — sealed `.stwal`
/// first, then active `.stwal.open`, each group sorted by name (names embed
/// a zero-padded sequence number, so name order IS append order).
std::vector<std::string> ListWalSegments(const std::string& wal_dir);

}  // namespace st4ml

#endif  // ST4ML_INGEST_WAL_H_
