#ifndef ST4ML_SELECTION_ON_DISK_INDEX_H_
#define ST4ML_SELECTION_ON_DISK_INDEX_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "engine/dataset.h"
#include "index/stix.h"
#include "partition/partitioner.h"
#include "storage/stpq.h"

namespace st4ml {

namespace selection_internal {

inline std::string PartFileName(size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "part-%05zu.stpq", index);
  return name;
}

/// One partition file write, re-attempted per `retry`: a transient IOError
/// (disk pressure, injected fault) is retried with backoff; the truncating
/// writer makes a re-attempt idempotent. Retries are charged to
/// kTasksRetried so they show in the metrics snapshot.
template <typename RecordT>
Status WritePartFileWithRetry(const std::string& path,
                              const std::vector<RecordT>& records,
                              const RetryPolicy& retry,
                              CounterRegistry& counters) {
  uint64_t written = 0;
  Status status = retry.Run(
      [&]() -> Status {
        uint64_t bytes = 0;
        Status write = WriteStpqFile(path, records, &bytes);
        if (write.ok()) written = bytes;
        return write;
      },
      &counters);
  if (!status.ok()) return status;
  counters.Add(Counter::kStpqBytesWritten, written);
  counters.Add(Counter::kStpqFilesWritten, 1);
  return Status::Ok();
}

/// The STR bulk-load step of ingestion: serializes the partition's packed
/// R-tree + id postings sidecar next to its just-written `.stpq`, retried
/// like the part file itself (the truncating writer is idempotent). Runs
/// AFTER the part file is durable so the sidecar's size|mtime key matches
/// what a later Open stats.
template <typename RecordT>
Status WriteStixWithRetry(const std::string& stpq_path,
                          const std::vector<RecordT>& records,
                          const RetryPolicy& retry,
                          CounterRegistry& counters) {
  // Sidecar bytes stay OUT of kStpqBytesWritten: that counter means STPQ
  // record bytes, and its read-side twin likewise never counts index pages
  // (those are kIndexPagesRead currency).
  return retry.Run(
      [&]() -> Status { return BuildStixForStpq(stpq_path, records); },
      &counters);
}

}  // namespace selection_internal

/// Writes a dataset to `dir` as one STPQ file per engine partition, with no
/// ST layout and no metadata — the "plain storage" a full-scan selection has
/// to read end to end.
template <typename RecordT>
Status PersistDataset(const Dataset<RecordT>& data, const std::string& dir,
                      const RetryPolicy& retry = {}) {
  CounterRegistry& counters = internal::Counters(*data.context());
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    ST4ML_RETURN_IF_ERROR(selection_internal::WritePartFileWithRetry(
        dir + "/" + selection_internal::PartFileName(p), data.partition(p),
        retry, counters));
  }
  return Status::Ok();
}

/// ST4ML's ingestion (paper §3.1 + ROADMAP #2): train `partitioner` on
/// every record envelope, place each record in its ONE primary partition,
/// write one STPQ file per partition, bulk-load each partition's `.stix`
/// sidecar index (STR-packed R-tree + id postings — the persistent
/// external-memory index cold selection mmaps), and record each file's
/// tight ST envelope in a metadata sidecar. Selection later prunes whole
/// files against that metadata before touching their bytes; a cold Select
/// then serves each survivor through its sidecar.
template <typename RecordT>
Status BuildOnDiskIndex(const Dataset<RecordT>& data,
                        STPartitioner* partitioner, const std::string& dir,
                        const std::string& meta_path,
                        const RetryPolicy& retry = {}) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("BuildOnDiskIndex requires a partitioner");
  }
  std::vector<RecordT> records = data.Collect();
  std::vector<STBox> boxes;
  boxes.reserve(records.size());
  for (const RecordT& r : records) boxes.push_back(r.ComputeSTBox());
  partitioner->Train(boxes);

  int n = partitioner->num_partitions();
  if (n <= 0) return Status::Internal("partitioner produced no partitions");
  std::vector<std::vector<RecordT>> parts(static_cast<size_t>(n));
  std::vector<STBox> bounds(static_cast<size_t>(n));
  for (size_t i = 0; i < records.size(); ++i) {
    // Single assignment: on disk every record lives exactly once, or
    // selection would return duplicates.
    int p = partitioner->Assign(boxes[i], /*duplicate=*/false,
                                static_cast<uint64_t>(records[i].id))[0];
    if (p < 0 || p >= n) {
      return Status::Internal("partition assignment out of range");
    }
    parts[static_cast<size_t>(p)].push_back(std::move(records[i]));
    bounds[static_cast<size_t>(p)].Extend(boxes[i]);
  }

  CounterRegistry& counters = internal::Counters(*data.context());
  std::vector<StpqPartMeta> meta;
  meta.reserve(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    std::string name = selection_internal::PartFileName(p);
    ST4ML_RETURN_IF_ERROR(selection_internal::WritePartFileWithRetry(
        dir + "/" + name, parts[p], retry, counters));
    ST4ML_RETURN_IF_ERROR(selection_internal::WriteStixWithRetry(
        dir + "/" + name, parts[p], retry, counters));
    StpqPartMeta entry;
    entry.file = std::move(name);
    entry.box = bounds[p];
    entry.count = parts[p].size();
    meta.push_back(std::move(entry));
  }
  return retry.Run([&] { return WriteStpqMeta(meta_path, meta); }, &counters);
}

}  // namespace st4ml

#endif  // ST4ML_SELECTION_ON_DISK_INDEX_H_
