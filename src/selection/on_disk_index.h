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
/// write one STPQ file per partition in its STR leaf order with its `.stix`
/// sidecar index (STR-packed R-tree + id postings — the persistent
/// external-memory index cold selection mmaps), and publish the part list
/// at `meta_path` (generation 0: nothing streamed yet). Selection later
/// prunes whole files against that list before touching their bytes; a cold
/// Select then serves each survivor through its sidecar.
///
/// Staging holds one part at a time: records are placed by pointer into
/// `data`, the training envelopes are freed, and each part is copied,
/// written and freed before the next.
template <typename RecordT>
Status BuildOnDiskIndex(const Dataset<RecordT>& data,
                        STPartitioner* partitioner, const std::string& dir,
                        const std::string& meta_path,
                        const RetryPolicy& retry = {}) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("BuildOnDiskIndex requires a partitioner");
  }
  std::vector<STBox> boxes;
  boxes.reserve(data.Count());
  for (size_t q = 0; q < data.num_partitions(); ++q) {
    for (const RecordT& r : data.partition(q)) {
      boxes.push_back(r.ComputeSTBox());
    }
  }
  partitioner->Train(boxes);

  int n = partitioner->num_partitions();
  if (n <= 0) return Status::Internal("partitioner produced no partitions");
  std::vector<std::vector<const RecordT*>> members(static_cast<size_t>(n));
  std::vector<int> assigned;
  size_t i = 0;
  for (size_t q = 0; q < data.num_partitions(); ++q) {
    for (const RecordT& r : data.partition(q)) {
      // Single assignment: on disk every record lives exactly once, or
      // selection would return duplicates.
      assigned.clear();
      partitioner->AssignTo(boxes[i++], /*duplicate=*/false,
                            static_cast<uint64_t>(r.id), &assigned);
      if (assigned.empty() || assigned[0] < 0 || assigned[0] >= n) {
        return Status::Internal("partition assignment out of range");
      }
      members[static_cast<size_t>(assigned[0])].push_back(&r);
    }
  }
  std::vector<STBox>().swap(boxes);

  CounterRegistry& counters = internal::Counters(*data.context());
  StpqManifest manifest;  // generation 0, nothing consumed: a batch build
  manifest.parts.reserve(members.size());
  for (size_t p = 0; p < members.size(); ++p) {
    std::vector<RecordT> records;
    records.reserve(members[p].size());
    for (const RecordT* r : members[p]) records.push_back(*r);
    std::vector<const RecordT*>().swap(members[p]);
    auto part = WriteIndexedPart(dir, selection_internal::PartFileName(p),
                                 std::move(records), retry, &counters);
    if (!part.ok()) return part.status();
    manifest.parts.push_back(std::move(*part));
  }
  return retry.Run([&] { return WriteStpqMeta(meta_path, manifest); },
                   &counters);
}

}  // namespace st4ml

#endif  // ST4ML_SELECTION_ON_DISK_INDEX_H_
