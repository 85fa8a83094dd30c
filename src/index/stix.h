#ifndef ST4ML_INDEX_STIX_H_
#define ST4ML_INDEX_STIX_H_

// STIX — the persistent external-memory ST index (ROADMAP #2, DESIGN.md
// §12). At ingest time an STR bulk loader orders each STPQ partition's
// records, the part is WRITTEN in that order, and a sidecar
// `part-NNNNN.stix` next to the `part-NNNNN.stpq` holds a page-oriented
// packed R-tree over consecutive records PLUS a trajectory-id inverted
// index (postings lists per id). At query time the sidecar is mmap'd, so a
// COLD selection walks index pages, refines leaf hits through the
// vectorized FilterBoxes kernel over mmap'd SoA envelope columns, and then
// reads only covering spans of the matching records' bytes — instead of
// parsing the whole file and building an R-tree in memory first. Warm paths
// keep the in-memory cached index (DatasetCache); the Selector picks per
// file.
//
// Invalidation: the header embeds the source file's StpqIdentity: its size
// and mtime — the same key the dataset cache uses — PLUS a fingerprint of
// its STPQ header, so even a same-size rewrite landing within one mtime tick
// invalidates the sidecar and the Selector falls back to a linear scan
// instead of serving stale hits.
//
// File layout, version 3 (native-endian, like STPQ — never leaves the
// machine):
//   StixHeader | 64-byte-aligned sections:
//     nodes        StixNode[node_count]   packed STR tree, root LAST
//     x_min..t_max f64[n] x4, i64[n] x2   envelope columns
//     rec_offsets  u64[n + 1]             record byte offsets
//     id_dir       StixIdEntry[id_count]  sorted by id
//     postings     u32[n]                 positions, sorted by (id, position)
//
// Leaf position IS record index: the part is stored in leaf order, so a
// leaf hit is a CONTIGUOUS run of columns and of record bytes. The query
// path points an EnvelopeView straight into the mapped pages (the view has
// no alignment requirement), runs the active SIMD backend over them
// zero-copy, and `rec_offsets` turns the ascending hits into the few byte
// runs StpqReader reads.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "accel/kernels.h"
#include "common/retry.h"
#include "common/status.h"
#include "index/stbox.h"
#include "storage/stpq.h"

namespace st4ml {

inline constexpr char kStixMagic[4] = {'S', 'T', 'I', 'X'};
inline constexpr uint32_t kStixVersion = 3;
/// The transfer unit kIndexPagesRead counts: 4 KiB, the mmap page size.
inline constexpr uint64_t kStixPageBytes = 4096;
/// STR fan-out, matching the in-memory RTree so both halves of the index
/// prune comparably.
inline constexpr uint32_t kStixNodeCapacity = 16;
inline constexpr uint64_t kStixSectionAlign = 64;

/// Section order in the offset table (and in the file).
enum StixSection : uint32_t {
  kStixNodes = 0,
  kStixColXMin,
  kStixColYMin,
  kStixColXMax,
  kStixColYMax,
  kStixColTMin,
  kStixColTMax,
  kStixRecOffsets,
  kStixIdDir,
  kStixPostings,
  kStixNumSections,
};

/// One packed STR node, exactly 64 bytes so nodes never straddle more
/// mapped pages than they must. Children always precede their parent
/// (bottom-up packing), so a root-to-leaf walk only ever moves to LOWER
/// node indices — Open exploits that for a cycle-free structural check.
struct StixNode {
  double x_min = 0.0;
  double y_min = 0.0;
  double x_max = 0.0;
  double y_max = 0.0;
  int64_t t_min = 0;
  int64_t t_max = 0;
  uint32_t first = 0;  // leaf: first leaf position; internal: first child
  uint32_t count = 0;
  uint32_t leaf = 0;  // 1 = leaf
  uint32_t pad = 0;
};
static_assert(sizeof(StixNode) == 64, "StixNode must pack to 64 bytes");

/// One inverted-index directory entry: this id's postings run.
struct StixIdEntry {
  int64_t id = 0;
  uint64_t first = 0;  // index into the postings section
  uint64_t count = 0;
};
static_assert(sizeof(StixIdEntry) == 24, "StixIdEntry must pack to 24 bytes");

struct StixHeader {
  char magic[4] = {0, 0, 0, 0};
  uint32_t version = 0;
  uint64_t record_count = 0;
  uint64_t node_count = 0;
  uint64_t id_count = 0;
  uint64_t source_size = 0;   // .stpq size at build time (invalidation key)
  int64_t source_mtime = 0;   // .stpq mtime at build time (invalidation key)
  // FNV-1a of the source's STPQ header bytes: catches a same-size rewrite
  // that lands within one mtime tick (count or kind changed), which the
  // size|mtime pair alone cannot.
  uint64_t source_fingerprint = 0;
  uint64_t file_bytes = 0;    // total .stix size the layout implies
  uint64_t section_off[kStixNumSections] = {};
};
static_assert(sizeof(StixHeader) == 144, "StixHeader must pack to 144 bytes");

/// Sidecar path for an STPQ partition: the extension swapped to `.stix`.
std::string StixPathFor(const std::string& stpq_path);

/// The 3-d STR leaf order of `boxes` (slabs by x, sub-slabs by y, runs by
/// t): position j of a part written in this order holds record
/// `order[j]`. Ties break by input position, so a part already in its
/// order maps to the identity and a rewrite keeps its bytes.
std::vector<uint32_t> StrOrder(const std::vector<STBox>& boxes);

/// Moves `(*items)[order[j]]` to position j for every j, following the
/// permutation's cycles: no second array of items.
template <typename T>
void PermuteInPlace(std::vector<uint32_t> order, std::vector<T>* items) {
  for (uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] == i) continue;
    T held = std::move((*items)[i]);
    uint32_t j = i;
    while (true) {
      const uint32_t from = order[j];
      order[j] = j;  // placed
      if (from == i) {
        (*items)[j] = std::move(held);
        break;
      }
      (*items)[j] = std::move((*items)[from]);
      j = from;
    }
  }
}

/// Everything the bulk loader needs about one partition, in record order —
/// which is its leaf order: leaves pack consecutive records.
struct StixBuildInput {
  std::vector<STBox> boxes;       // record envelopes (ComputeSTBox)
  std::vector<int64_t> ids;       // record ids
  std::vector<uint64_t> offsets;  // n + 1 byte offsets into the .stpq
};

/// Serializes `input` as a sidecar at `stix_path`, keyed to the source
/// file's `source` identity. The file is staged under `<stix_path>.tmp` and
/// published by atomic rename.
Status WriteStixFile(const std::string& stix_path, const StixBuildInput& input,
                     const StpqIdentity& source);

/// Writes `path` under `retry`: a transient IOError (disk pressure, an
/// injected fault) is re-attempted with backoff, and the truncating writer
/// makes a re-attempt idempotent. With `counters`, re-attempts are charged
/// to kTasksRetried and the written file to kStpqBytesWritten /
/// kStpqFilesWritten.
template <typename RecordT>
Status WriteStpqFileWithRetry(const std::string& path,
                              const std::vector<RecordT>& records,
                              const RetryPolicy& retry,
                              CounterRegistry* counters) {
  uint64_t written = 0;
  ST4ML_RETURN_IF_ERROR(retry.Run(
      [&]() -> Status {
        uint64_t bytes = 0;
        Status write = WriteStpqFile(path, records, &bytes);
        if (write.ok()) written = bytes;
        return write;
      },
      counters));
  if (counters != nullptr) {
    counters->Add(Counter::kStpqBytesWritten, written);
    counters->Add(Counter::kStpqFilesWritten, 1);
  }
  return Status::Ok();
}

/// The one part writer of a dataset directory, shared by batch ingestion
/// (BuildOnDiskIndex), the streaming compactor and `st4ml_index build`
/// (RebuildIndexedPart): puts `records` in their STR leaf order (StrOrder,
/// by move), writes them to `<dir>/<name>`, then the `.stix` sidecar over
/// that order (after the part is durable, so the sidecar's identity key
/// matches what a later open sees), each under `retry`, and returns the
/// part's index.meta entry. Its box is the union of the records' valid
/// envelopes (IsValidEnvelope). Sidecar bytes stay out of
/// kStpqBytesWritten, which counts STPQ record bytes, as its read-side twin
/// never counts index pages.
template <typename RecordT>
StatusOr<StpqPartMeta> WriteIndexedPart(const std::string& dir,
                                        std::string name,
                                        std::vector<RecordT> records,
                                        const RetryPolicy& retry,
                                        CounterRegistry* counters) {
  StixBuildInput input;
  input.boxes.reserve(records.size());
  for (const RecordT& r : records) input.boxes.push_back(r.ComputeSTBox());
  std::vector<uint32_t> order = StrOrder(input.boxes);
  PermuteInPlace(order, &input.boxes);
  PermuteInPlace(std::move(order), &records);

  StpqPartMeta part;
  part.file = std::move(name);
  part.count = records.size();
  input.ids.reserve(records.size());
  input.offsets.reserve(records.size() + 1);
  uint64_t offset = kStpqHeaderBytes;
  input.offsets.push_back(offset);
  for (size_t i = 0; i < records.size(); ++i) {
    if (IsValidEnvelope(input.boxes[i])) part.box.Extend(input.boxes[i]);
    input.ids.push_back(records[i].id);
    offset += StpqRecordBytes(records[i]);
    input.offsets.push_back(offset);
  }
  const std::string path = dir + "/" + part.file;
  ST4ML_RETURN_IF_ERROR(
      WriteStpqFileWithRetry(path, records, retry, counters));
  ST4ML_RETURN_IF_ERROR(retry.Run(
      [&]() -> Status {
        StatusOr<StpqIdentity> source = ReadStpqIdentity(path);
        if (!source.ok()) return source.status();
        return WriteStixFile(StixPathFor(path), input, *source);
      },
      counters));
  return part;
}

/// Rewrites the part at `stpq_path` through WriteIndexedPart: its records
/// in leaf order (the same bytes if they already are), then a current
/// sidecar. The records, and so the part's index.meta entry, are unchanged.
/// Returns the record count.
StatusOr<uint64_t> RebuildIndexedPart(const std::string& stpq_path);

/// The postings section of the sidecar at `stix_path` — every record
/// position, sorted by (id, position) — read with one pread after the same
/// header, layout and identity checks Open makes. The section's entries are
/// NOT audited: a caller checks what it uses.
StatusOr<std::vector<uint32_t>> ReadStixPostings(const std::string& stix_path,
                                                 const StpqIdentity& source);

/// Per-query index observability, fed into kIndexPagesRead / kPostingsHits.
struct StixQueryStats {
  uint64_t pages_read = 0;     // distinct 4 KiB index pages touched
  uint64_t postings_hits = 0;  // postings entries resolved for queried ids
};

/// A validated, mmap'd sidecar. Open checks the header — magic/version,
/// exact section layout against the header counts, staleness against the
/// source's identity — then performs the FULL corruption audit up front:
/// node structure (children strictly below parents, leaf runs in bounds),
/// postings a permutation, record offsets monotone and inside the source
/// file, id directory sorted with postings runs in bounds. So the query
/// methods can walk raw mapped memory without per-access checks. The
/// selector passes the identity of the `.stpq` it already holds open
/// (StpqReader), so the sidecar is checked against the very file the
/// records come from. The audit is a few sequential integer scans over the
/// mapped pages: a fraction of the parse-and-build it replaces. Any
/// violation returns InvalidArgument (bad bytes, including a sidecar of
/// another version) or IOError (can't map), and the Selector falls back to
/// the linear-scan plan.
class StixIndex {
 public:
  static StatusOr<StixIndex> Open(const std::string& stix_path,
                                  const StpqIdentity& source);
  /// Reads `stpq_path`'s identity first; an unreadable source is stale.
  static StatusOr<StixIndex> Open(const std::string& stix_path,
                                  const std::string& stpq_path);

  StixIndex() = default;
  ~StixIndex();
  StixIndex(StixIndex&& other) noexcept;
  StixIndex& operator=(StixIndex&& other) noexcept;
  StixIndex(const StixIndex&) = delete;
  StixIndex& operator=(const StixIndex&) = delete;

  uint64_t record_count() const { return header_.record_count; }
  uint64_t node_count() const { return header_.node_count; }
  uint64_t id_count() const { return header_.id_count; }
  uint64_t file_bytes() const { return header_.file_bytes; }
  const StixHeader& header() const { return header_; }

  /// Record indices (ascending) whose envelope intersects `query` — the
  /// exact FilterBoxes predicate, so results are byte-identical to a
  /// linear kernel scan of the parsed file. Leaf runs are walked in
  /// position order, so the hits come out ascending unsorted. The CALLER
  /// does the query-side emptiness check, as everywhere else in the kernel
  /// contract.
  void QueryBox(const accel::BoxFilterQuery& query,
                std::vector<uint32_t>* hits, StixQueryStats* stats) const;

  /// Record indices (ascending) whose id is in `ids` (sorted unique) AND —
  /// when `apply_box` — whose envelope passes `query`, refined through the
  /// stored columns with the same kernel predicate.
  void LookupIds(const std::vector<int64_t>& ids,
                 const accel::BoxFilterQuery& query, bool apply_box,
                 std::vector<uint32_t>* hits, StixQueryStats* stats) const;

  /// Byte offset of record `index` in the source .stpq (index may be n:
  /// the end offset of the last record).
  uint64_t RecordOffset(uint64_t index) const { return rec_offsets_[index]; }

 private:
  Status Validate(const std::string& stix_path, const StpqIdentity& source);
  void Unmap();

  StixHeader header_;
  const uint8_t* base_ = nullptr;
  size_t map_len_ = 0;
  const StixNode* nodes_ = nullptr;
  const double* col_x_min_ = nullptr;
  const double* col_y_min_ = nullptr;
  const double* col_x_max_ = nullptr;
  const double* col_y_max_ = nullptr;
  const int64_t* col_t_min_ = nullptr;
  const int64_t* col_t_max_ = nullptr;
  const uint64_t* rec_offsets_ = nullptr;
  const StixIdEntry* id_dir_ = nullptr;
  const uint32_t* postings_ = nullptr;
};

}  // namespace st4ml

#endif  // ST4ML_INDEX_STIX_H_
