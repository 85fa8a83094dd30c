#ifndef ST4ML_INGEST_INGESTOR_H_
#define ST4ML_INGEST_INGESTOR_H_

// Crash-safe streaming ingestion (DESIGN.md §13): appended records land in
// ONE active WAL segment (src/ingest/wal.h) under `<dir>/wal/`, sealed by
// record count, and a background compactor buckets the sealed segments'
// records by time into indexed `ingest-g<gen>-b<bucket>.stpq` (+`.stix`)
// partitions published atomically.
// The single commit point is the directory's part list, `<dir>/index.meta`
// (StpqManifest, src/storage/stpq.h): readers obtain the partition list and
// the consumed-segment skip set from one atomically-replaced file, so a
// Select issued mid-stream sees every acked record exactly once. Opening a
// batch-built directory adopts the parts its index.meta lists.
//
// Crash semantics:
//  - AppendBatch returning Ok is the ack; the destructor does NOT seal or
//    flush, so dropping an Ingestor mid-stream leaves exactly what a
//    SIGKILL would — Open() replays it.
//  - A crash before a manifest publish leaves orphan `ingest-*` partitions
//    (deleted at the next Open) and the segments they absorbed (replayed):
//    no record is lost or duplicated.
//  - A crash after the publish but before segment deletion leaves
//    consumed-but-present segments, which Open() deletes instead of
//    replaying.
//  - Consumed segment FILES are deleted one compaction cycle late
//    (`pending_delete_`), a grace window for cross-process readers that
//    listed them just before the commit.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/execution_context.h"
#include "ingest/wal.h"
#include "storage/stpq.h"

namespace st4ml {

struct IngestorOptions {
  /// Width of the time buckets compaction groups records into: each cycle
  /// writes one `ingest-g<gen>-b<bucket>.stpq` part per bucket its records
  /// touch, so compacted partitions stay time-partitioned.
  int64_t bucket_seconds = 3600;
  /// The active segment is sealed once it holds this many records, whatever
  /// their times.
  uint64_t seal_records = 4096;
  /// Background compactor cadence.
  int64_t compact_interval_ms = 200;
  /// Start the background compactor thread at Open. Tests that script
  /// compaction call CompactNow() themselves and pass false.
  bool start_compactor = true;
};

struct IngestorStats {
  uint64_t appended = 0;    ///< records acked by this process
  uint64_t replayed = 0;    ///< records recovered from WAL at Open
  uint64_t staged = 0;      ///< records currently in WAL segments
  uint64_t compacted = 0;   ///< records in published partitions
  uint64_t compactions = 0; ///< manifest publishes by this process
  uint64_t wal_segments = 0;
  uint64_t generation = 0;  ///< current manifest generation
};

class Ingestor {
 public:
  /// Opens (creating if needed) an ingest directory, runs crash recovery
  /// (orphan cleanup + WAL replay), and starts the compactor thread when
  /// options ask for it. `ctx` is optional and only feeds the engine
  /// counters (kWalReplayedRecords, kCompactionsRun).
  static StatusOr<std::unique_ptr<Ingestor>> Open(
      const std::string& dir, const IngestorOptions& options = {},
      ExecutionContext* ctx = nullptr);

  /// NOT a graceful shutdown: stops the compactor thread and drops the
  /// active writer WITHOUT sealing — on-disk state is exactly what a crash
  /// leaves. Call Flush() first for a clean handoff.
  ~Ingestor();

  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  /// The one append: one write(2) into the active segment, which seals once
  /// it holds `seal_records`. Returning Ok IS the ack (see wal.h for the
  /// durability ladder); callers that ack per record pass a one-record
  /// batch. All-or-nothing: an error means NO record of the batch was
  /// staged or acked (a partial write(2) is rolled back), so a client may
  /// retry the whole batch without duplicating records.
  Status AppendBatch(const std::vector<EventRecord>& records);

  /// Graceful drain: seals the active segment, then compacts everything
  /// staged into published partitions.
  Status Flush();

  /// One synchronous compaction cycle (also what the background thread
  /// runs). A no-op returning Ok when nothing is sealed.
  Status CompactNow();

  IngestorStats Stats() const;

  /// Hold SHARED across a whole in-process merged read to keep the
  /// compactor from deleting a listed segment underneath it.
  std::shared_mutex& snapshot_mu() const { return snapshot_mu_; }

  const std::string& dir() const { return dir_; }
  const std::string& wal_dir() const { return wal_dir_; }

 private:
  Ingestor(std::string dir, const IngestorOptions& options,
           ExecutionContext* ctx);

  Status Recover();
  void CompactorLoop();
  /// Seals the active writer and moves its segment to the sealed list. On
  /// failure the writer stays active for a later retry when possible; a
  /// writer whose descriptor is already closed is parked as an `.open`
  /// segment the compactor reads tolerantly.
  void SealLocked();
  std::string SegmentPath(uint64_t seq) const;

  const std::string dir_;
  const std::string wal_dir_;
  const IngestorOptions options_;
  ExecutionContext* const ctx_;

  /// Guards the write side: active writer, sealed segment list, sequence.
  mutable std::mutex mu_;
  std::optional<WalWriter> active_;
  std::vector<std::string> sealed_;  // segment paths awaiting compaction
  uint64_t next_seq_ = 0;
  uint64_t staged_records_ = 0;

  /// Readers share, the compactor takes it exclusively for the
  /// commit swap + deferred deletions.
  mutable std::shared_mutex snapshot_mu_;
  StpqManifest manifest_;
  std::vector<std::string> pending_delete_;  // consumed paths, deleted next cycle
  uint64_t compacted_records_ = 0;

  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> replayed_{0};
  std::atomic<uint64_t> compactions_{0};

  /// Serializes compaction cycles (background thread vs explicit
  /// CompactNow/Flush callers).
  std::mutex compact_mu_;

  std::thread compactor_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
};

}  // namespace st4ml

#endif  // ST4ML_INGEST_INGESTOR_H_
