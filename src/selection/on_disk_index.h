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

}  // namespace selection_internal

/// Writes a dataset to `dir` as one STPQ file per engine partition, with no
/// ST layout and no metadata — the "plain storage" a full-scan selection has
/// to read end to end.
template <typename RecordT>
Status PersistDataset(const Dataset<RecordT>& data, const std::string& dir,
                      const RetryPolicy& retry = {}) {
  CounterRegistry& counters = internal::Counters(*data.context());
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    ST4ML_RETURN_IF_ERROR(WriteStpqFileWithRetry(
        dir + "/" + selection_internal::PartFileName(p), data.partition(p),
        retry, &counters));
  }
  return Status::Ok();
}

/// ST4ML's ingestion (paper §3.1 + ROADMAP #2): train `partitioner` on
/// every record envelope, place each record in its ONE primary partition,
/// write one STPQ file per partition, bulk-load each partition's `.stix`
/// sidecar index (STR-packed R-tree + id postings — the persistent
/// external-memory index cold selection mmaps), and publish the part list
/// at `meta_path` (generation 0: nothing streamed yet). Selection later
/// prunes whole files against that list before touching their bytes; a cold
/// Select then serves each survivor through its sidecar.
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
    // The part box skips envelopes that can match nothing (NaN, inverted).
    if (IsValidEnvelope(boxes[i])) {
      bounds[static_cast<size_t>(p)].Extend(boxes[i]);
    }
  }

  CounterRegistry& counters = internal::Counters(*data.context());
  StpqManifest manifest;  // generation 0, nothing consumed: a batch build
  manifest.parts.reserve(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    auto part = WriteIndexedPart(dir, selection_internal::PartFileName(p),
                                 parts[p], bounds[p], retry, &counters);
    if (!part.ok()) return part.status();
    manifest.parts.push_back(std::move(*part));
  }
  return retry.Run([&] { return WriteStpqMeta(meta_path, manifest); },
                   &counters);
}

}  // namespace st4ml

#endif  // ST4ML_SELECTION_ON_DISK_INDEX_H_
