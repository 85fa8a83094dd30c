#ifndef ST4ML_SELECTION_SELECTOR_H_
#define ST4ML_SELECTION_SELECTOR_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "accel/kernels.h"
#include "common/retry.h"
#include "common/status.h"
#include "engine/dataset.h"
#include "engine/dataset_cache.h"
#include "index/stix.h"
#include "ingest/wal.h"
#include "partition/partitioner.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "selection/query_planner.h"
#include "selection/select_query.h"
#include "storage/ingest_manifest.h"
#include "storage/stpq.h"

namespace st4ml {

namespace selection_internal {

/// What the selector caches per STPQ file: the raw records PLUS their
/// per-record envelopes as SoA columns, so a warm hit skips the file read,
/// the parse AND every per-record ComputeSTBox — only one vectorized
/// FilterBoxes kernel pass and the copy of matching records remain
/// (DESIGN.md §11). `envelope` is the union of all non-degenerate record
/// envelopes: a warm query that misses it skips the kernel pass entirely.
/// The cache budget accounts the serialized record bytes; the columns are
/// index overhead on top, as for the on-disk index itself.
template <typename RecordT>
struct IndexedStpqFile {
  std::vector<RecordT> records;
  accel::EnvelopeColumns cols;  // per-record envelopes, SoA
  STBox envelope;               // union of valid record envelopes
};

template <typename RecordT>
std::shared_ptr<const IndexedStpqFile<RecordT>> MakeIndexedFile(
    std::vector<RecordT> records) {
  auto file = std::make_shared<IndexedStpqFile<RecordT>>();
  file->records = std::move(records);
  file->cols.Reserve(file->records.size());
  for (const RecordT& r : file->records) {
    const STBox box = r.ComputeSTBox();
    file->cols.Append(box);
    // The file envelope skips degenerate boxes (inverted — e.g. an empty
    // trajectory — or NaN coordinates): they can never match a query, and
    // a NaN must not poison the union into rejecting the whole file.
    if (box.mbr.x_min <= box.mbr.x_max && box.mbr.y_min <= box.mbr.y_max) {
      file->envelope.Extend(box);
    }
  }
  return file;
}

/// Cache reload fn: re-reads the origin file and recomputes its columns, so
/// an entry that was evicted under memory pressure comes back fully indexed.
template <typename RecordT>
StatusOr<std::shared_ptr<const void>> ReloadIndexedFile(
    const std::string& path, uint64_t* io_bytes) {
  auto loaded = ReadStpqFile<RecordT>(path, io_bytes);
  if (!loaded.ok()) return loaded.status();
  return std::shared_ptr<const void>(
      MakeIndexedFile<RecordT>(std::move(*loaded)));
}

/// One file's Select outcome: the selected records plus the per-file
/// accounting LoadAndFilter folds after the join. Each load task fills its
/// own slot, so the fold reads every file's stats in index order.
template <typename RecordT>
struct FileLoadResult {
  std::vector<RecordT> records;
  uint64_t read_bytes = 0;
  uint64_t selected_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t postings_hits = 0;
  bool file_read = false;
  bool mmapped = false;
  FilePlan plan_run = FilePlan::kLinearScan;  // the plan actually executed
};

}  // namespace selection_internal

struct SelectorOptions {
  /// When set (and partition_after_select is true), the selected records are
  /// ST-partitioned for the downstream stages — select FIRST, partition the
  /// small result, not the other way around (the paper's ordering).
  std::shared_ptr<STPartitioner> partitioner;
  bool partition_after_select = true;
  /// Per-file load retry: transient IOErrors (a flaky filesystem, an
  /// injected fault) are re-attempted with backoff before failing the
  /// Select; deterministic errors (NotFound, Corruption) fail immediately.
  RetryPolicy retry;
  /// Let the QueryPlanner serve COLD files (no enabled cache) from their
  /// mmap'd `.stix` sidecar when one is present and valid: index pages are
  /// walked, leaf hits refine through the kernel over mapped columns, and
  /// only matching record bytes are read. Results are byte-identical to
  /// the linear scan (the differential property harness pins it); only the
  /// I/O counters differ. Defaults from ST4ML_DISK_INDEX ("off" disables).
  bool use_disk_index = DiskIndexEnabledByEnv();
};

/// I/O accounting, accumulated across Select calls: how many file bytes were
/// read, and how many bytes of records survived the ST predicate. The gap
/// between the two is what metadata pruning (and the mmap index's ranged
/// reads) save.
struct SelectorStats {
  uint64_t bytes_loaded = 0;
  uint64_t bytes_selected = 0;
};

/// The selection stage (paper §3.1): load persisted records matching a
/// SelectQuery — ST box AND optional id set. One-argument Select scans a
/// plain directory end to end; the two-argument form prunes whole files
/// through the on-disk metadata first and only opens survivors. Per file,
/// the QueryPlanner picks the cached-index, mmap-index, or linear-scan
/// plan; every plan returns byte-identical records.
template <typename RecordT>
class Selector {
 public:
  Selector(std::shared_ptr<ExecutionContext> ctx, SelectQuery query,
           SelectorOptions options = {})
      : ctx_(std::move(ctx)),
        query_(std::move(query)),
        options_(std::move(options)) {}

  /// Full scan of every STPQ file in `dir`.
  StatusOr<Dataset<RecordT>> Select(const std::string& dir) {
    std::vector<std::string> paths = ListStpqFiles(dir);
    if (paths.empty()) {
      return Status::NotFound("no STPQ files under " + dir);
    }
    return LoadAndFilter(paths);
  }

  /// Metadata-pruned selection over a directory written by BuildOnDiskIndex.
  StatusOr<Dataset<RecordT>> Select(const std::string& dir,
                                    const std::string& meta_path) {
    auto meta = ReadStpqMeta(meta_path);
    if (!meta.ok()) return meta.status();
    std::vector<std::string> paths;
    for (const StpqPartMeta& part : *meta) {
      // Empty partitions have inverted envelopes and never match.
      if (part.box.Intersects(query_.box)) {
        paths.push_back(dir + "/" + part.file);
      }
    }
    internal::Counters(*ctx_).Add(Counter::kPartitionsPruned,
                                  meta->size() - paths.size());
    return LoadAndFilter(paths);
  }

  /// Merged selection over a streaming-ingest directory (DESIGN.md §13):
  /// ONE SelectQuery is answered from the compacted partitions the
  /// `ingest.manifest` lists PLUS the staged WAL tail — every acked record
  /// exactly once, mid-stream. Segments are listed BEFORE the manifest is
  /// read, so a segment consumed between the two steps is both skipped (the
  /// newer manifest marks it consumed) and covered (the same manifest lists
  /// its partition). A directory with no manifest and no segments selects
  /// an empty dataset, not NotFound — "nothing ingested yet" is an answer.
  StatusOr<Dataset<RecordT>> SelectIngest(const std::string& dir) {
    std::vector<std::string> segments = ListWalSegments(dir + "/wal");
    IngestManifest manifest;
    auto read = ReadIngestManifest(IngestManifestPath(dir));
    if (read.ok()) {
      manifest = std::move(*read);
    } else if (read.status().code() != Status::Code::kNotFound) {
      return read.status();
    }
    std::vector<std::string> paths;
    for (const StpqPartMeta& part : manifest.parts) {
      if (part.box.Intersects(query_.box)) {
        paths.push_back(dir + "/" + part.file);
      }
    }
    internal::Counters(*ctx_).Add(Counter::kPartitionsPruned,
                                  manifest.parts.size() - paths.size());
    std::vector<std::string> consumed(manifest.consumed);
    std::sort(consumed.begin(), consumed.end());
    for (const std::string& segment : segments) {
      std::string name = std::filesystem::path(segment).filename().string();
      // A consumed segment's records already live in a listed partition;
      // its not-yet-deleted file must not be double counted. An active
      // `.open` segment is consulted under its sealed name too, in case a
      // rename committed between the listing and this check. A listing
      // that caught a seal mid-rename may hold both names: the sealed one
      // is read, the `.open` one skipped.
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".open") == 0) {
        name.resize(name.size() - 5);
        const std::string sealed = segment.substr(0, segment.size() - 5);
        if (std::find(segments.begin(), segments.end(), sealed) !=
            segments.end()) {
          continue;
        }
      }
      if (!std::binary_search(consumed.begin(), consumed.end(), name)) {
        paths.push_back(segment);
      }
    }
    return LoadAndFilter(paths);
  }

  const SelectorStats& stats() const { return stats_; }
  const SelectQuery& query() const { return query_; }

 private:
  /// Loads and filters `paths` IN PARALLEL, one Status-returning task
  /// per file, so a per-file IOError propagates to the caller instead of
  /// failing the process (and a transient one is retried per
  /// options_.retry before it counts as a failure). Partition i of the
  /// result is always file i — the parallel fill is index-addressed, so the
  /// output is byte-identical to the old sequential load.
  ///
  /// Each file executes the plan the QueryPlanner picked:
  ///   - kCachedIndex: probe the DatasetCache; a hit refines the warm
  ///     in-memory index, a miss loads the file once and admits it. The
  ///     cache key folds in size|mtime, so a rewritten file gets a fresh
  ///     entry instead of stale bytes.
  ///   - kMmapIndex: mmap the validated `.stix` sidecar, walk index pages,
  ///     refine leaf hits through the kernel over mapped columns, and
  ///     ranged-read ONLY the matching record bytes. A sidecar that fails
  ///     its validation audit demotes the file to a linear scan.
  ///   - kLinearScan: full parse + in-memory filter (the seed path).
  /// Every plan evaluates the same envelopes against the same query, so
  /// the selected output is byte-identical across plans; only the I/O and
  /// planner counters differ.
  StatusOr<Dataset<RecordT>> LoadAndFilter(
      const std::vector<std::string>& paths) {
    ScopedSpan op(ctx_->tracer(), span_category::kOperation,
                  "selection/load_filter");
    CounterRegistry& counters = internal::Counters(*ctx_);
    Tracer* tracer = ctx_->tracer();
    const uint64_t op_span = op.id();
    DatasetCache* cache = ctx_->cache().enabled() ? &ctx_->cache() : nullptr;
    QueryPlanner planner(cache, options_.use_disk_index);
    // One slot per file, filled only by that file's task and folded into
    // stats_/counters on the driver after the join.
    using FileLoad = selection_internal::FileLoadResult<RecordT>;
    std::vector<FileLoad> loads(paths.size());
    auto load_task = [&](size_t i) -> Status {
      FileLoad& out = loads[i];
      ScopedSpan io(tracer, span_category::kIo, "stpq_read", op_span);
      const FilePlan plan = planner.Plan(paths[i]);
      if (plan == FilePlan::kWalScan) {
        out.plan_run = FilePlan::kWalScan;
        io.AddArg("plan_wal", 1);
        if constexpr (std::is_same_v<RecordT, EventRecord>) {
          // Tolerant read: a merged Select may race the live appender, and
          // the only incomplete frame a segment can legally carry is the
          // in-flight tail — unacked by definition, so correct to exclude.
          auto result = ReadListedWalSegment(paths[i]);
          if (!result.ok()) return result.status();
          out.read_bytes = result->good_bytes;
          out.file_read = true;
          out.records =
              FilterRecords(std::move(result->records), &out.selected_bytes);
          return Status::Ok();
        } else {
          return Status::InvalidArgument("WAL staging holds event records: " +
                                         paths[i]);
        }
      }
      if (plan == FilePlan::kCachedIndex) {
        // Only planned when `cache` is non-null.
        out.plan_run = FilePlan::kCachedIndex;
        io.AddArg("plan_cached", 1);
        uint64_t key = cache->InternDatasetId(FileCacheName(paths[i]));
        auto got = cache->Get(key, 0);
        if (!got.ok()) return got.status();
        if (*got != nullptr) {
          // Hit: filter the cached columns and copy only the matching
          // records; no file I/O, no parse, no envelope recomputation.
          auto file = std::static_pointer_cast<
              const selection_internal::IndexedStpqFile<RecordT>>(*got);
          out.records = FilterIndexed(*file, &out.selected_bytes);
          return Status::Ok();
        }
        auto records = ReadWhole(paths[i], &out, &io, counters);
        if (!records.ok()) return records.status();
        // Miss: admit the records with their columns, with the source file
        // as the reload path — eviction drops memory without writing
        // anything.
        auto file = selection_internal::MakeIndexedFile<RecordT>(
            std::move(records).value());
        cache->Put(key, 0, file, out.read_bytes, paths[i],
                   &selection_internal::ReloadIndexedFile<RecordT>);
        out.records = FilterIndexed(*file, &out.selected_bytes);
        return Status::Ok();
      }
      if (plan == FilePlan::kMmapIndex) {
        auto served = ServeViaStix(paths[i], &out, counters);
        if (!served.ok()) return served.status();  // hard I/O or corruption
        if (*served) {
          out.plan_run = FilePlan::kMmapIndex;
          io.AddArg("plan_mmap", 1);
          io.AddArg("bytes", out.read_bytes);
          return Status::Ok();
        }
        // Invalid / stale sidecar: fall through to the linear scan.
      }
      out.plan_run = FilePlan::kLinearScan;
      io.AddArg("plan_scan", 1);
      auto records = ReadWhole(paths[i], &out, &io, counters);
      if (!records.ok()) return records.status();
      out.records =
          FilterRecords(std::move(records).value(), &out.selected_bytes);
      return Status::Ok();
    };
    ST4ML_RETURN_IF_ERROR(
        ctx_->TryRunParallel("selection/load_filter", paths.size(), load_task));
    typename Dataset<RecordT>::Partitions parts(paths.size());
    uint64_t records_out = 0;
    uint64_t loaded_bytes = 0;
    uint64_t kept_bytes = 0;
    uint64_t files_read = 0;
    uint64_t plan_counts[kNumFilePlans] = {};
    uint64_t files_mmapped = 0;
    uint64_t pages_total = 0;
    uint64_t postings_total = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      FileLoad& load = loads[i];
      records_out += load.records.size();
      loaded_bytes += load.read_bytes;
      kept_bytes += load.selected_bytes;
      files_read += load.file_read;
      plan_counts[static_cast<size_t>(load.plan_run)] += 1;
      files_mmapped += load.mmapped;
      pages_total += load.pages_read;
      postings_total += load.postings_hits;
      parts[i] = std::move(load.records);
    }
    stats_.bytes_loaded += loaded_bytes;
    stats_.bytes_selected += kept_bytes;
    counters.Add(Counter::kStpqBytesRead, loaded_bytes);
    counters.Add(Counter::kStpqFilesRead, files_read);
    // Scanned counts files CONSULTED (pruned + scanned == total), whether
    // their bytes came from disk, the cache, or the mmap'd index.
    counters.Add(Counter::kPartitionsScanned, paths.size());
    counters.Add(Counter::kSelectionRecordsOut, records_out);
    counters.Add(Counter::kSelectionBytesSelected, kept_bytes);
    QueryPlanner::CountExecuted(
        counters, plan_counts[static_cast<size_t>(FilePlan::kMmapIndex)],
        plan_counts[static_cast<size_t>(FilePlan::kCachedIndex)],
        plan_counts[static_cast<size_t>(FilePlan::kLinearScan)],
        plan_counts[static_cast<size_t>(FilePlan::kWalScan)]);
    if (files_mmapped > 0) {
      counters.Add(Counter::kIndexFilesMmapped, files_mmapped);
    }
    if (pages_total > 0) counters.Add(Counter::kIndexPagesRead, pages_total);
    if (postings_total > 0) {
      counters.Add(Counter::kPostingsHits, postings_total);
    }
    op.AddArg("files", paths.size());
    op.AddArg("records_out", records_out);
    auto selected = Dataset<RecordT>::FromPartitions(ctx_, std::move(parts));
    if (options_.partitioner != nullptr && options_.partition_after_select) {
      auto partitioned = TrySTPartition(
          selected, options_.partitioner.get(),
          [](const RecordT& r) { return r.ComputeSTBox(); },
          [](const RecordT& r) { return static_cast<uint64_t>(r.id); });
      if (!partitioned.ok()) return partitioned.status();
      selected = std::move(partitioned).value();
    }
    return selected;
  }

  /// Reads all of one STPQ file under the retry policy (the cached-miss and
  /// linear-scan plans): transient IOErrors are re-attempted, and on success
  /// `out` records the bytes of the attempt that succeeded.
  StatusOr<std::vector<RecordT>> ReadWhole(
      const std::string& path, selection_internal::FileLoadResult<RecordT>* out,
      ScopedSpan* io, CounterRegistry& counters) {
    uint64_t attempts = 0;
    auto records = options_.retry.Run(
        [&]() -> StatusOr<std::vector<RecordT>> {
          uint64_t bytes = 0;
          auto loaded = ReadStpqFile<RecordT>(path, &bytes);
          if (loaded.ok()) out->read_bytes = bytes;
          return loaded;
        },
        &counters, &attempts);
    io->AddArg("bytes", out->read_bytes);
    if (attempts > 1) io->AddArg("attempts", attempts);
    if (records.ok()) out->file_read = true;
    return records;
  }

  /// The kMmapIndex plan for one file. Returns false (not an error) when
  /// the sidecar is missing, stale, or fails its validation audit — the
  /// caller demotes the file to a linear scan, which is also what the
  /// corruption-hardening contract promises (DESIGN.md §12). Returns a
  /// non-OK Status only for hard failures AFTER a valid index: a ranged
  /// read that misses its promised byte run (Corruption) or an I/O error
  /// the retry policy could not absorb.
  StatusOr<bool> ServeViaStix(const std::string& path,
                              selection_internal::FileLoadResult<RecordT>* load,
                              CounterRegistry& counters) {
    auto opened = StixIndex::Open(StixPathFor(path), path);
    if (!opened.ok()) return false;
    load->mmapped = true;
    StixIndex index = std::move(*opened);
    StixQueryStats qstats;
    std::vector<uint32_t> hits;
    // Query-side emptiness stays a host check (kernel contract): an
    // inverted query box matches nothing and touches no pages.
    if (!query_.box.mbr.IsEmpty()) {
      const auto q = accel::BoxFilterQuery::FromBox(query_.box);
      if (query_.has_ids) {
        index.LookupIds(query_.ids, q, /*apply_box=*/true, &hits, &qstats);
      } else {
        index.QueryBox(q, &hits, &qstats);
      }
    }
    load->pages_read = qstats.pages_read;
    load->postings_hits = qstats.postings_hits;
    std::vector<RecordT>* out = &load->records;
    out->clear();
    if (hits.empty()) return true;  // no match: the .stpq is never opened
    constexpr uint8_t kind = std::is_same_v<RecordT, EventRecord>
                                 ? kStpqKindEvent
                                 : kStpqKindTraj;
    uint64_t attempts = 0;
    Status read = options_.retry.Run(
        [&]() -> Status {
          out->clear();
          auto reader = StpqReader::Open(path, kind);
          if (!reader.ok()) return reader.status();
          if (reader->record_count() != index.record_count()) {
            return Status::Corruption(
                "stix sidecar record count disagrees with " + path);
          }
          // Coalesce consecutive hit indices into maximal byte runs: one
          // seek-and-read per run, records emerging in ascending record
          // order — byte-identical to the linear filter.
          size_t a = 0;
          while (a < hits.size()) {
            size_t b = a + 1;
            while (b < hits.size() && hits[b] == hits[b - 1] + 1) ++b;
            ST4ML_RETURN_IF_ERROR(reader->template ReadRecordsAt<RecordT>(
                index.RecordOffset(hits[a]),
                index.RecordOffset(hits[b - 1] + 1),
                b - a, out));
            a = b;
          }
          load->read_bytes = reader->bytes_read();
          return Status::Ok();
        },
        &counters, &attempts);
    if (!read.ok()) return read;
    load->file_read = true;
    for (const RecordT& r : *out) load->selected_bytes += StpqRecordBytes(r);
    return true;
  }

  /// Cache key for one STPQ file: path plus size and mtime, so a rewritten
  /// file (re-ingest into the same directory) gets a fresh entry instead
  /// of serving stale records. Costs one stat per file per Select — noise
  /// next to the read it saves.
  static std::string FileCacheName(const std::string& path) {
    std::error_code ec;
    uint64_t size = FileSizeBytes(path);
    auto mtime = std::filesystem::last_write_time(path, ec);
    int64_t stamp =
        ec ? 0 : static_cast<int64_t>(mtime.time_since_epoch().count());
    return "stpq:" + path + "|" + std::to_string(size) + "|" +
           std::to_string(stamp);
  }

  /// The one refinement every in-memory plan shares: indices of the
  /// records matching the query, in record order, from one vectorized pass
  /// of the active backend's FilterBoxes kernel over the records' envelope
  /// columns — the same closed-interval predicate STBox::Intersects applies.
  /// The kernel folds in record-side degeneracy but leaves the query-side
  /// emptiness test to the host: an inverted query matches nothing, exactly
  /// as Intersects would report. The id predicate composes afterwards (AND).
  std::vector<size_t> MatchIndices(const accel::EnvelopeColumns& cols,
                                   const std::vector<RecordT>& records) {
    std::vector<size_t> hits;
    if (query_.box.mbr.IsEmpty() || cols.empty()) return hits;
    const accel::EnvelopeView view = cols.View();
    std::vector<uint8_t> bitmap(view.size);
    accel::Active().FilterBoxes(accel::BoxFilterQuery::FromBox(query_.box),
                                view, bitmap.data());
    accel::BackendRegistry::Instance().CountBatch(view.size);
    for (size_t i = 0; i < view.size; ++i) {
      if (bitmap[i] != 0 && query_.MatchesId(records[i].id)) hits.push_back(i);
    }
    return hits;
  }

  /// Filter over a cached indexed file (borrowed, shared with the cache):
  /// the warm path. A query outside the file's envelope union returns
  /// without touching a record; otherwise the cached columns feed
  /// MatchIndices and only MATCHING records are copied out — a warm hit
  /// never pays for the records the query rejects, and never recomputes an
  /// envelope.
  std::vector<RecordT> FilterIndexed(
      const selection_internal::IndexedStpqFile<RecordT>& file,
      uint64_t* bytes_selected) {
    if (!query_.box.Intersects(file.envelope)) return {};
    const std::vector<size_t> hits = MatchIndices(file.cols, file.records);
    std::vector<RecordT> kept;
    kept.reserve(hits.size());
    for (size_t i : hits) {
      kept.push_back(file.records[i]);
      *bytes_selected += StpqRecordBytes(kept.back());
    }
    return kept;
  }

  /// Filter over owned records (the linear-scan and WAL plans): computes
  /// each envelope once into columns, then matches are moved out.
  std::vector<RecordT> FilterRecords(std::vector<RecordT>&& records,
                                     uint64_t* bytes_selected) {
    accel::EnvelopeColumns cols;
    cols.Reserve(records.size());
    for (const RecordT& r : records) cols.Append(r.ComputeSTBox());
    const std::vector<size_t> hits = MatchIndices(cols, records);
    std::vector<RecordT> kept;
    kept.reserve(hits.size());
    for (size_t i : hits) {
      kept.push_back(std::move(records[i]));
      *bytes_selected += StpqRecordBytes(kept.back());
    }
    return kept;
  }

  std::shared_ptr<ExecutionContext> ctx_;
  SelectQuery query_;
  SelectorOptions options_;
  SelectorStats stats_;
};

}  // namespace st4ml

#endif  // ST4ML_SELECTION_SELECTOR_H_
