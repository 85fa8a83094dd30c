#ifndef ST4ML_SELECTION_SELECTOR_H_
#define ST4ML_SELECTION_SELECTOR_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
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
#include "selection/select_query.h"
#include "storage/stpq.h"

namespace st4ml {

/// How one file was served by a Select (DESIGN.md §12), counted into the
/// kPlanner{LinearScan,CachedIndex,MmapIndex} / kWalSegmentsScanned
/// counters.
enum class FilePlan : uint8_t {
  kLinearScan = 0,   // read the whole file, filter in memory
  kCachedIndex = 1,  // in-memory cached index: hit, or load-and-admit
  kMmapIndex = 2,    // mmap the .stix sidecar, read only matching bytes
  kWalScan = 3,      // staged `.stwal` segment: frame-parse + filter
};
inline constexpr size_t kNumFilePlans = 4;

namespace selection_internal {

/// Orders positions into `records` by (id, position): the id directory's
/// order, and the order a `limit` keeps the lowest of.
template <typename RecordT>
auto ByIdThenPosition(const std::vector<RecordT>& records) {
  return [&records](uint32_t a, uint32_t b) {
    return records[a].id != records[b].id ? records[a].id < records[b].id
                                          : a < b;
  };
}

/// What the selector caches per STPQ file: the raw records PLUS their
/// per-record envelopes as SoA columns, so a warm hit skips the file read,
/// the parse AND every per-record ComputeSTBox — only one vectorized
/// FilterBoxes kernel pass remains, and only the records the query keeps
/// are copied out (DESIGN.md §11). `envelope` is the union of all
/// non-degenerate record envelopes: a warm query that misses it skips the
/// kernel pass entirely. `by_id` is the id directory: every record position
/// sorted by (id, position), 4 B per record, so an id predicate
/// binary-searches its candidates instead of scanning the file. The cache
/// budget accounts the serialized record bytes; the columns and the
/// directory are index overhead on top, as for the on-disk index itself.
template <typename RecordT>
struct IndexedStpqFile {
  std::vector<RecordT> records;
  accel::EnvelopeColumns cols;  // per-record envelopes, SoA
  std::vector<uint32_t> by_id;  // positions sorted by (id, position)
  STBox envelope;               // union of valid record envelopes
};

/// Whether `postings` is the id directory of `records`: every position
/// once, in strictly ascending (id, position) order. One pass; an entry is
/// bounds-checked before it indexes `records`.
template <typename RecordT>
bool IsIdDirectory(const std::vector<uint32_t>& postings,
                   const std::vector<RecordT>& records) {
  if (postings.size() != records.size()) return false;
  const auto order = ByIdThenPosition(records);
  for (size_t k = 0; k < postings.size(); ++k) {
    if (postings[k] >= records.size()) return false;
    if (k > 0 && !order(postings[k - 1], postings[k])) return false;
  }
  return true;
}

/// Indexes a loaded file for the cache. `postings` is its sidecar's
/// postings section (ReadStixPostings), empty when it has no valid one: a
/// part stored in leaf order is not in id order, and the sidecar already
/// holds the directory, so it is taken as `by_id` once it checks out. A file
/// without one is sorted, unless it is already in id order.
template <typename RecordT>
std::shared_ptr<const IndexedStpqFile<RecordT>> MakeIndexedFile(
    std::vector<RecordT> records, std::vector<uint32_t> postings) {
  auto file = std::make_shared<IndexedStpqFile<RecordT>>();
  file->records = std::move(records);
  file->cols.Reserve(file->records.size());
  for (const RecordT& r : file->records) {
    const STBox box = r.ComputeSTBox();
    file->cols.Append(box);
    if (IsValidEnvelope(box)) file->envelope.Extend(box);
  }
  if (IsIdDirectory(postings, file->records)) {
    file->by_id = std::move(postings);
    return file;
  }
  file->by_id.resize(file->records.size());
  std::iota(file->by_id.begin(), file->by_id.end(), 0u);
  const auto order = ByIdThenPosition(file->records);
  if (!std::is_sorted(file->by_id.begin(), file->by_id.end(), order)) {
    std::sort(file->by_id.begin(), file->by_id.end(), order);
  }
  return file;
}

/// One file's Select outcome: the selected records plus the per-file
/// accounting LoadAndFilter folds after the join. Each load task fills its
/// own slot, so the fold reads every file's stats in index order.
template <typename RecordT>
struct FileLoadResult {
  std::vector<RecordT> records;  // the matches the query's shaping keeps
  uint64_t matched = 0;          // every match, kept or not
  uint64_t read_bytes = 0;
  uint64_t read_calls = 0;
  uint64_t selected_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t postings_hits = 0;
  bool file_read = false;
  FilePlan plan_run = FilePlan::kLinearScan;  // the plan actually executed
};

}  // namespace selection_internal

struct SelectorOptions {
  /// When set, the selected records are ST-partitioned for the downstream
  /// stages — select FIRST, partition the small result, not the other way
  /// around (the paper's ordering).
  std::shared_ptr<STPartitioner> partitioner;
  /// Per-file load retry: transient IOErrors (a flaky filesystem, an
  /// injected fault) are re-attempted with backoff before failing the
  /// Select; deterministic errors (NotFound, Corruption) fail immediately.
  RetryPolicy retry;
};

/// I/O accounting, accumulated across Select calls: how many file bytes were
/// read, and how many bytes of records survived the ST predicate. The gap
/// between the two is what metadata pruning (and the mmap index's ranged
/// reads) save.
struct SelectorStats {
  uint64_t bytes_loaded = 0;
  uint64_t bytes_selected = 0;
  /// Records matching the query, whether or not its count_only / limit
  /// shaping kept them: the answer to a count, and the total behind a
  /// limited answer.
  uint64_t records_matched = 0;
};

/// The selection stage (paper §3.1): load persisted records matching a
/// SelectQuery — ST box AND optional id set. One-argument Select scans a
/// plain directory end to end; the two-argument form prunes whole files
/// through the directory's part list first, only opens survivors, and adds
/// the staged WAL tail of a streamed directory. Per file,
/// the input picks the plan — a WAL segment, an enabled cache, a valid
/// `.stix` sidecar, or none of these — and every plan returns
/// byte-identical records. The query's count_only / limit shaping is
/// applied per file on every plan: partition i holds none of file i's
/// matches, or its `limit` lowest by (id, position), and stats() carries
/// the full match count.
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

  /// Metadata-pruned selection over a dataset directory (DESIGN.md §12-13),
  /// batch-built or streamed: the parts the manifest at `meta_path` lists,
  /// pruned by the query box, PLUS the staged WAL tail under `<dir>/wal`
  /// that the manifest has not consumed — every acked record exactly once,
  /// mid-stream. Segments are listed BEFORE the manifest is read, so a
  /// segment consumed between the two steps is both skipped (the newer
  /// manifest marks it consumed) and covered (the same manifest lists its
  /// part). A missing manifest is an empty part list when `<dir>/wal`
  /// exists — "nothing compacted yet" is an answer — and NotFound otherwise.
  StatusOr<Dataset<RecordT>> Select(const std::string& dir,
                                    const std::string& meta_path) {
    const std::string wal_dir = dir + "/wal";
    std::vector<std::string> segments = ListWalSegments(wal_dir);
    StpqManifest manifest;
    auto read = ReadStpqMeta(meta_path);
    if (read.ok()) {
      manifest = std::move(*read);
    } else {
      std::error_code ec;
      if (read.status().code() != Status::Code::kNotFound ||
          !std::filesystem::is_directory(wal_dir, ec)) {
        return read.status();
      }
    }
    std::vector<std::string> paths;
    for (const StpqPartMeta& part : manifest.parts) {
      // Empty partitions have inverted envelopes and never match.
      if (part.box.Intersects(query_.box)) {
        paths.push_back(dir + "/" + part.file);
      }
    }
    internal::Counters(*ctx_).Add(Counter::kPartitionsPruned,
                                  manifest.parts.size() - paths.size());
    std::vector<std::string> consumed(manifest.consumed);
    std::sort(consumed.begin(), consumed.end());
    for (const std::string& segment : segments) {
      // A consumed segment's records already live in a listed partition;
      // its not-yet-deleted file must not be double counted. An active
      // `.open` segment is consulted under its sealed name too, in case a
      // rename committed between the listing and this check. A listing
      // that caught a seal mid-rename may hold both names: the sealed one
      // is read, the `.open` one skipped.
      const std::string_view sealed = WalSealedName(segment);
      if (IsOpenWalSegment(segment) &&
          std::find(segments.begin(), segments.end(), sealed) !=
              segments.end()) {
        continue;
      }
      const std::string name =
          std::filesystem::path(sealed).filename().string();
      if (!std::binary_search(consumed.begin(), consumed.end(), name)) {
        paths.push_back(segment);
      }
    }
    return LoadAndFilter(paths);
  }

  /// The merged read of `dir` through its own `index.meta`.
  StatusOr<Dataset<RecordT>> SelectIngest(const std::string& dir) {
    return Select(dir, dir + "/index.meta");
  }

  const SelectorStats& stats() const { return stats_; }
  const SelectQuery& query() const { return query_; }

 private:
  using FileLoad = selection_internal::FileLoadResult<RecordT>;

  /// Loads and filters `paths` IN PARALLEL, one Status-returning task
  /// per file, so a per-file IOError propagates to the caller instead of
  /// failing the process (and a transient one is retried per
  /// options_.retry before it counts as a failure). Partition i of the
  /// result is always file i — the parallel fill is index-addressed, so the
  /// output is byte-identical to the old sequential load.
  ///
  /// Each file's plan is a function of the input alone (DESIGN.md §12):
  ///   - kWalScan: a `.stwal` / `.stwal.open` staging segment is
  ///     frame-parsed and filtered, in the mode its name picks
  ///     (ReadWalSegment): a sealed segment strictly, so a corrupt frame
  ///     fails the Select.
  ///   - kCachedIndex: with the cache enabled, one DatasetCache::GetOrLoad;
  ///     a hit refines the warm in-memory index (an id predicate through
  ///     its id directory) and copies only the records shaping keeps; a
  ///     miss or an evicted file is read whole (under options_.retry) and
  ///     admitted, its id directory read from a current sidecar. The
  ///     cache key folds in size|mtime, so a rewritten file gets a fresh
  ///     entry instead of stale bytes.
  ///   - otherwise the `.stpq` is opened once and its `.stix` sidecar is
  ///     validated against that open file. kMmapIndex if it validates:
  ///     walk index pages, refine leaf hits through the kernel over mapped
  ///     columns, and read only covering spans of the matching records'
  ///     bytes. kLinearScan if it is missing, stale or fails its audit:
  ///     read the whole file through the same descriptor and filter it.
  /// Every plan evaluates the same envelopes against the same query and
  /// shapes its matches through the one ShapeHits step, so the selected
  /// output is byte-identical across plans; only the I/O and planner
  /// counters differ.
  StatusOr<Dataset<RecordT>> LoadAndFilter(
      const std::vector<std::string>& paths) {
    ScopedSpan op(ctx_->tracer(), span_category::kOperation,
                  "selection/load_filter");
    CounterRegistry& counters = internal::Counters(*ctx_);
    Tracer* tracer = ctx_->tracer();
    const uint64_t op_span = op.id();
    DatasetCache* cache = ctx_->cache().enabled() ? &ctx_->cache() : nullptr;
    // One slot per file, filled only by that file's task and folded into
    // stats_/counters on the driver after the join.
    std::vector<FileLoad> loads(paths.size());
    auto load_task = [&](size_t i) -> Status {
      FileLoad& out = loads[i];
      const std::string& path = paths[i];
      ScopedSpan io(tracer, span_category::kIo, "stpq_read", op_span);
      if (IsWalSegment(path)) {
        out.plan_run = FilePlan::kWalScan;
        io.AddArg("plan_wal", 1);
        if constexpr (std::is_same_v<RecordT, EventRecord>) {
          // An `.open` segment is read tolerantly: a merged Select may race
          // the live appender, and the only incomplete frame it can legally
          // carry is the in-flight tail — unacked by definition, so correct
          // to exclude. A sealed one must parse end to end.
          auto result = ReadWalSegment(path);
          if (!result.ok()) return result.status();
          out.read_bytes = result->good_bytes;
          out.file_read = true;
          out.records = FilterRecords(std::move(result->records), &out);
          return Status::Ok();
        } else {
          return Status::InvalidArgument("WAL staging holds event records: " +
                                         path);
        }
      }
      if (cache != nullptr) {
        out.plan_run = FilePlan::kCachedIndex;
        io.AddArg("plan_cached", 1);
        // One call serves hits, first loads and reloads of evicted files.
        // A load reads the whole file and indexes its columns; a reload's
        // bytes are the cache's reload bytes, not first-load stpq I/O.
        auto got = cache->GetOrLoad(
            FileCacheName(path),
            [&](bool reload) -> StatusOr<DatasetCache::Loaded> {
              FileLoad reread;
              FileLoad* read = reload ? &reread : &out;
              if (reload) io.AddArg("reload", 1);
              auto reader = OpenStpq(path, counters);
              if (!reader.ok()) return reader.status();
              ST4ML_RETURN_IF_ERROR(ReadAll(*reader, read, &io, counters));
              auto postings =
                  ReadStixPostings(StixPathFor(path), reader->identity());
              return DatasetCache::Loaded{
                  selection_internal::MakeIndexedFile<RecordT>(
                      std::move(read->records),
                      postings.ok() ? std::move(*postings)
                                    : std::vector<uint32_t>{}),
                  read->read_bytes};
            });
        if (!got.ok()) return got.status();
        // Filter the cached columns and copy only the records the query
        // keeps; a resident hit pays no file I/O, parse or envelope
        // recomputation.
        auto file = std::static_pointer_cast<
            const selection_internal::IndexedStpqFile<RecordT>>(*got);
        out.records = FilterIndexed(*file, &out);
        return Status::Ok();
      }
      auto reader = OpenStpq(path, counters);
      if (!reader.ok()) return reader.status();
      auto index = StixIndex::Open(StixPathFor(path), reader->identity());
      if (index.ok()) {
        auto served = ServeViaStix(path, *reader, *index, &out, counters);
        if (!served.ok()) return served.status();
        if (*served) {
          out.plan_run = FilePlan::kMmapIndex;
          io.AddArg("plan_mmap", 1);
          io.AddArg("bytes", out.read_bytes);
          return Status::Ok();
        }
        out = FileLoad{};  // the sidecar named a record the query rejects
      }
      // No valid sidecar (missing, stale, failing its audit, or naming a
      // record that does not match).
      out.plan_run = FilePlan::kLinearScan;
      io.AddArg("plan_scan", 1);
      ST4ML_RETURN_IF_ERROR(ReadAll(*reader, &out, &io, counters));
      out.records = FilterRecords(std::move(out.records), &out);
      return Status::Ok();
    };
    ST4ML_RETURN_IF_ERROR(
        ctx_->TryRunParallel("selection/load_filter", paths.size(), load_task));
    typename Dataset<RecordT>::Partitions parts(paths.size());
    uint64_t records_out = 0;
    uint64_t loaded_bytes = 0;
    uint64_t read_calls = 0;
    uint64_t kept_bytes = 0;
    uint64_t files_read = 0;
    uint64_t plan_counts[kNumFilePlans] = {};
    uint64_t pages_total = 0;
    uint64_t postings_total = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      FileLoad& load = loads[i];
      records_out += load.matched;
      loaded_bytes += load.read_bytes;
      read_calls += load.read_calls;
      kept_bytes += load.selected_bytes;
      files_read += load.file_read;
      plan_counts[static_cast<size_t>(load.plan_run)] += 1;
      pages_total += load.pages_read;
      postings_total += load.postings_hits;
      parts[i] = std::move(load.records);
    }
    stats_.bytes_loaded += loaded_bytes;
    stats_.bytes_selected += kept_bytes;
    stats_.records_matched += records_out;
    counters.Add(Counter::kStpqBytesRead, loaded_bytes);
    counters.Add(Counter::kStpqReadCalls, read_calls);
    counters.Add(Counter::kStpqFilesRead, files_read);
    // Scanned counts files CONSULTED (pruned + scanned == total), whether
    // their bytes came from disk, the cache, or the mmap'd index.
    counters.Add(Counter::kPartitionsScanned, paths.size());
    counters.Add(Counter::kSelectionRecordsOut, records_out);
    counters.Add(Counter::kSelectionBytesSelected, kept_bytes);
    // The plan each file was actually served by, in FilePlan order.
    constexpr Counter kPlanCounters[kNumFilePlans] = {
        Counter::kPlannerLinearScan, Counter::kPlannerCachedIndex,
        Counter::kPlannerMmapIndex, Counter::kWalSegmentsScanned};
    for (size_t p = 0; p < kNumFilePlans; ++p) {
      if (plan_counts[p] > 0) counters.Add(kPlanCounters[p], plan_counts[p]);
    }
    // Every mmap-plan file mapped its sidecar.
    const uint64_t files_mmapped =
        plan_counts[static_cast<size_t>(FilePlan::kMmapIndex)];
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
    if (options_.partitioner != nullptr) {
      auto partitioned = TrySTPartition(
          std::move(selected), options_.partitioner.get(),
          [](const RecordT& r) { return r.ComputeSTBox(); },
          [](const RecordT& r) { return static_cast<uint64_t>(r.id); });
      if (!partitioned.ok()) return partitioned.status();
      selected = std::move(partitioned).value();
    }
    return selected;
  }

  /// Opens one `.stpq` under the retry policy: the one descriptor every
  /// plan but the WAL scan reads through.
  StatusOr<StpqReader> OpenStpq(const std::string& path,
                                CounterRegistry& counters) {
    return options_.retry.Run(
        [&] { return StpqReader::Open(path, StpqKindOf<RecordT>()); },
        &counters);
  }

  /// Reads every record of an opened file into `load->records` under the
  /// retry policy (the linear scan and the cached-index load); a retry
  /// re-reads through the same descriptor. A whole-file read is one read
  /// call of the file's bytes.
  Status ReadAll(StpqReader& reader, FileLoad* load,
                 ScopedSpan* io, CounterRegistry& counters) {
    uint64_t attempts = 0;
    Status read = options_.retry.Run(
        [&]() -> Status {
          load->records.clear();
          return reader.ReadAll(&load->records);
        },
        &counters, &attempts);
    if (read.ok()) {
      load->read_bytes = reader.file_bytes();
      load->read_calls = 1;
      load->file_read = true;
    }
    io->AddArg("bytes", load->read_bytes);
    if (attempts > 1) io->AddArg("attempts", attempts);
    return read;
  }

  /// The kMmapIndex plan for one file, over its opened `.stpq` and the
  /// sidecar validated against it. Every record read is checked against
  /// the query (STBox::Intersects, the predicate the scan's kernel is
  /// pinned to, and the id set); if one fails, the sidecar lied about its
  /// columns or postings, nothing is kept and the result is false, so the
  /// caller serves the file by the scan through the same descriptor.
  /// Returns a non-OK Status only for hard failures: a ranged read that
  /// misses its promised byte run (Corruption) or an I/O error the retry
  /// policy could not absorb.
  StatusOr<bool> ServeViaStix(const std::string& path, StpqReader& reader,
                              const StixIndex& index, FileLoad* load,
                              CounterRegistry& counters) {
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
    if (hits.empty()) return true;  // no match: no record byte read
    if (reader.record_count() != index.record_count()) {
      return Status::Corruption("stix sidecar record count disagrees with " +
                                path);
    }
    // Coalesce consecutive hit indices into maximal byte runs, records
    // emerging in ascending record order — byte-identical to the linear
    // filter. ReadRuns reads them in covering spans.
    std::vector<StpqRun> runs;
    size_t a = 0;
    while (a < hits.size()) {
      size_t b = a + 1;
      while (b < hits.size() && hits[b] == hits[b - 1] + 1) ++b;
      runs.push_back({index.RecordOffset(hits[a]),
                      index.RecordOffset(hits[b - 1] + 1), b - a});
      a = b;
    }
    out->reserve(hits.size());
    Status read = options_.retry.Run(
        [&]() -> Status {
          out->clear();
          return reader.ReadRuns(runs, out);
        },
        &counters);
    if (!read.ok()) return read;
    for (const RecordT& r : *out) {
      if (!query_.MatchesId(r.id) ||
          !query_.box.Intersects(r.ComputeSTBox())) {
        return false;
      }
    }
    load->read_bytes = reader.bytes_read();
    load->read_calls = reader.read_calls();
    load->file_read = true;
    // Every record read matched; shaping drops what the query does not keep.
    std::vector<uint32_t> matches(out->size());
    std::iota(matches.begin(), matches.end(), 0u);
    *out = TakeShaped(std::move(*out), std::move(matches), load);
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
  std::vector<uint32_t> MatchIndices(const accel::EnvelopeColumns& cols,
                                     const std::vector<RecordT>& records) {
    std::vector<uint32_t> hits;
    if (query_.box.mbr.IsEmpty() || cols.empty()) return hits;
    const accel::EnvelopeView view = cols.View();
    std::vector<uint8_t> bitmap(view.size);
    accel::Active().FilterBoxes(accel::BoxFilterQuery::FromBox(query_.box),
                                view, bitmap.data());
    accel::BackendRegistry::Instance().CountBatch(view.size);
    for (size_t i = 0; i < view.size; ++i) {
      if (bitmap[i] != 0 && query_.MatchesId(records[i].id)) {
        hits.push_back(static_cast<uint32_t>(i));
      }
    }
    return hits;
  }

  /// The id predicate over a cached file: each requested id is
  /// binary-searched in the file's id directory, and only those candidates'
  /// envelopes go through the kernel, in one FilterPositions pass — as
  /// StixIndex::LookupIds does on disk. Matches come back in record order.
  std::vector<uint32_t> LookupIds(
      const selection_internal::IndexedStpqFile<RecordT>& file) {
    std::vector<uint32_t> hits;
    if (query_.box.mbr.IsEmpty()) return hits;
    const std::vector<RecordT>& recs = file.records;
    for (int64_t id : query_.ids) {
      auto it = std::lower_bound(
          file.by_id.begin(), file.by_id.end(), id,
          [&](uint32_t pos, int64_t want) { return recs[pos].id < want; });
      for (; it != file.by_id.end() && recs[*it].id == id; ++it) {
        hits.push_back(*it);
      }
    }
    accel::FilterPositions(accel::BoxFilterQuery::FromBox(query_.box),
                           file.cols.View(), &hits);
    std::sort(hits.begin(), hits.end());
    return hits;
  }

  /// The one shaping step every plan runs on a file's matches, given as
  /// ascending positions into `records`. It counts them and sums their
  /// serialized bytes into `load`, so the selection counters count matches
  /// on every plan. Then count_only keeps none, and limit >= 0 keeps the
  /// `limit` lowest by (id, position), back in position order. The default
  /// query keeps every hit. A caller that orders all files' kept rows by
  /// id and takes `limit` gets the global lowest: each is among its own
  /// file's lowest.
  void ShapeHits(const std::vector<RecordT>& records,
                 std::vector<uint32_t>* hits, FileLoad* load) const {
    load->matched += hits->size();
    for (uint32_t i : *hits) {
      load->selected_bytes += StpqRecordBytes(records[i]);
    }
    if (query_.count_only) {
      hits->clear();
      return;
    }
    if (query_.limit < 0 ||
        hits->size() <= static_cast<uint64_t>(query_.limit)) {
      return;
    }
    const auto keep_end = hits->begin() + query_.limit;
    std::nth_element(hits->begin(), keep_end, hits->end(),
                     selection_internal::ByIdThenPosition(records));
    hits->erase(keep_end, hits->end());
    std::sort(hits->begin(), hits->end());
  }

  /// Filter over a cached indexed file (borrowed, shared with the cache):
  /// the warm path. A query outside the file's envelope union returns
  /// without touching a record; otherwise the matches come from the cached
  /// columns (or the id directory), are shaped, and only the records the
  /// query keeps are copied out — a warm hit never copies a record it
  /// rejects, counts or trims, and never recomputes an envelope.
  std::vector<RecordT> FilterIndexed(
      const selection_internal::IndexedStpqFile<RecordT>& file,
      FileLoad* load) {
    if (!query_.box.Intersects(file.envelope)) return {};
    std::vector<uint32_t> hits = query_.has_ids
                                     ? LookupIds(file)
                                     : MatchIndices(file.cols, file.records);
    ShapeHits(file.records, &hits, load);
    std::vector<RecordT> kept;
    kept.reserve(hits.size());
    for (uint32_t i : hits) kept.push_back(file.records[i]);
    return kept;
  }

  /// Shapes the matches `hits` of owned `records` and moves out the ones
  /// kept: the scan, mmap and WAL plans read records, then drop the rest.
  std::vector<RecordT> TakeShaped(std::vector<RecordT>&& records,
                                  std::vector<uint32_t> hits,
                                  FileLoad* load) const {
    ShapeHits(records, &hits, load);
    if (hits.size() == records.size()) return std::move(records);  // all kept
    std::vector<RecordT> kept;
    kept.reserve(hits.size());
    for (uint32_t i : hits) kept.push_back(std::move(records[i]));
    return kept;
  }

  /// Filter over owned records (the linear-scan and WAL plans): computes
  /// each envelope once into columns, then the kept matches are moved out.
  std::vector<RecordT> FilterRecords(std::vector<RecordT>&& records,
                                     FileLoad* load) {
    accel::EnvelopeColumns cols;
    cols.Reserve(records.size());
    for (const RecordT& r : records) cols.Append(r.ComputeSTBox());
    std::vector<uint32_t> hits = MatchIndices(cols, records);
    return TakeShaped(std::move(records), std::move(hits), load);
  }

  std::shared_ptr<ExecutionContext> ctx_;
  SelectQuery query_;
  SelectorOptions options_;
  SelectorStats stats_;
};

/// The rows a shaped Select answers with: every file's kept records ordered
/// by id, ties in file then record order, cut to `limit` (all of them for
/// limit < 0). Each file kept its own lowest, so these are the lowest of
/// all matches.
template <typename RecordT>
std::vector<RecordT> RowsInIdOrder(Dataset<RecordT>&& selected,
                                   int64_t limit) {
  std::vector<RecordT> rows = std::move(selected).Collect();
  std::stable_sort(
      rows.begin(), rows.end(),
      [](const RecordT& a, const RecordT& b) { return a.id < b.id; });
  if (limit >= 0 && rows.size() > static_cast<uint64_t>(limit)) {
    rows.resize(static_cast<size_t>(limit));
  }
  return rows;
}

}  // namespace st4ml

#endif  // ST4ML_SELECTION_SELECTOR_H_
