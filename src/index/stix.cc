#include "index/stix.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "storage/atomic_publish.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

/// Byte offsets of every section plus the total file size, derived ONLY
/// from the three header counts — the writer lays files out with it and
/// Open recomputes it to audit an untrusted header. Counts are capped at
/// 2^32 before this runs, so no product here can overflow.
struct StixLayout {
  uint64_t off[kStixNumSections] = {};
  uint64_t total = 0;
};

StixLayout ComputeStixLayout(uint64_t records, uint64_t nodes, uint64_t ids) {
  auto align = [](uint64_t v) {
    return (v + kStixSectionAlign - 1) / kStixSectionAlign * kStixSectionAlign;
  };
  StixLayout layout;
  uint64_t pos = sizeof(StixHeader);
  auto place = [&](StixSection s, uint64_t bytes) {
    pos = align(pos);
    layout.off[s] = pos;
    pos += bytes;
  };
  place(kStixNodes, nodes * sizeof(StixNode));
  place(kStixColXMin, records * sizeof(double));
  place(kStixColYMin, records * sizeof(double));
  place(kStixColXMax, records * sizeof(double));
  place(kStixColYMax, records * sizeof(double));
  place(kStixColTMin, records * sizeof(int64_t));
  place(kStixColTMax, records * sizeof(int64_t));
  place(kStixRecOffsets, (records + 1) * sizeof(uint64_t));
  place(kStixIdDir, ids * sizeof(StixIdEntry));
  place(kStixPostings, records * sizeof(uint32_t));
  layout.total = pos;
  return layout;
}

/// The checks a sidecar's header passes before any section is read: magic
/// and version, counts, the exact section layout those counts imply
/// against the file's `actual_bytes`, and the source identity. Open and
/// ReadStixPostings share them.
Status CheckStixHeader(const StixHeader& header, uint64_t actual_bytes,
                       const StpqIdentity& source,
                       const std::string& stix_path) {
  if (std::memcmp(header.magic, kStixMagic, sizeof(kStixMagic)) != 0) {
    return Status::InvalidArgument("bad stix magic in " + stix_path);
  }
  if (header.version != kStixVersion) {
    return Status::InvalidArgument("unsupported stix version in " + stix_path);
  }
  // Count-overflow guards BEFORE the layout audit: with every count capped
  // at 2^32 the layout arithmetic below cannot wrap, so a forged header
  // cannot alias a bogus section on top of a plausible file size.
  const uint64_t n = header.record_count;
  if (n > UINT32_MAX || header.node_count > UINT32_MAX ||
      header.id_count > n) {
    return Status::InvalidArgument("stix count overflow in " + stix_path);
  }
  if ((n == 0) != (header.node_count == 0)) {
    return Status::InvalidArgument("stix node/record counts disagree in " +
                                   stix_path);
  }
  StixLayout layout = ComputeStixLayout(n, header.node_count, header.id_count);
  if (header.file_bytes != layout.total || actual_bytes != layout.total) {
    return Status::InvalidArgument("truncated stix page table in " +
                                   stix_path);
  }
  for (uint32_t s = 0; s < kStixNumSections; ++s) {
    if (header.section_off[s] != layout.off[s]) {
      return Status::InvalidArgument("bad stix section layout in " +
                                     stix_path);
    }
  }
  // Staleness: the sidecar must describe the CURRENT source file. The
  // size|mtime pair is the dataset cache's key; the header fingerprint
  // additionally catches a same-size rewrite within one mtime tick.
  const StpqIdentity built{header.source_size, header.source_mtime,
                           header.source_fingerprint};
  if (built != source) {
    return Status::InvalidArgument("stale stix sidecar " + stix_path);
  }
  return Status::Ok();
}

StixNode EmptyNode() {
  StixNode node;
  node.x_min = 1.0;  // inverted: matches nothing until extended
  node.x_max = 0.0;
  node.y_min = 1.0;
  node.y_max = 0.0;
  node.t_min = 1;
  node.t_max = 0;
  return node;
}

void ExtendNode(StixNode* node, double x_min, double y_min, double x_max,
                double y_max, int64_t t_min, int64_t t_max) {
  if (node->x_min > node->x_max) {  // still empty: adopt
    node->x_min = x_min;
    node->y_min = y_min;
    node->x_max = x_max;
    node->y_max = y_max;
    node->t_min = t_min;
    node->t_max = t_max;
    return;
  }
  node->x_min = std::min(node->x_min, x_min);
  node->y_min = std::min(node->y_min, y_min);
  node->x_max = std::max(node->x_max, x_max);
  node->y_max = std::max(node->y_max, y_max);
  node->t_min = std::min(node->t_min, t_min);
  node->t_max = std::max(node->t_max, t_max);
}

bool NodeValid(const StixNode& node) {
  return node.x_min <= node.x_max && node.y_min <= node.y_max &&
         node.t_min <= node.t_max;
}

/// Node-vs-query intersection: the same closed-interval predicate as
/// STBox::Intersects, with the query-side emptiness test hoisted to the
/// query entry points (kernel contract). An empty node matches nothing.
bool NodeIntersects(const accel::BoxFilterQuery& q, const StixNode& node) {
  return NodeValid(node) && node.x_min <= q.x_max && q.x_min <= node.x_max &&
         node.y_min <= q.y_max && q.y_min <= node.y_max &&
         node.t_min <= q.t_max && q.t_min <= node.t_max;
}

/// Distinct 4 KiB pages a query touched. Absolute file byte ranges go in;
/// pages_read comes out once per query.
class PageTouches {
 public:
  void Touch(uint64_t begin, uint64_t bytes) {
    if (bytes == 0) return;
    uint64_t first = begin / kStixPageBytes;
    uint64_t last = (begin + bytes - 1) / kStixPageBytes;
    for (uint64_t p = first; p <= last; ++p) pages_.insert(p);
  }
  uint64_t count() const { return pages_.size(); }

 private:
  std::unordered_set<uint64_t> pages_;
};

}  // namespace

std::vector<uint32_t> StrOrder(const std::vector<STBox>& boxes) {
  const size_t n = boxes.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n == 0) return order;

  // Sort keys mirror RTree::Pack, with NaN replaced by 0: a NaN coordinate
  // must not break the comparators' strict weak ordering.
  auto key = [](double a, double b) {
    double sum = a + b;
    return std::isnan(sum) ? 0.0 : sum;
  };
  auto x_key = [&](const STBox& b) { return key(b.mbr.x_min, b.mbr.x_max); };
  auto y_key = [&](const STBox& b) { return key(b.mbr.y_min, b.mbr.y_max); };
  auto t_key = [](const STBox& b) {
    return static_cast<double>(b.time.start()) +
           static_cast<double>(b.time.end());
  };
  // Each pass sorts (key, input position) pairs held contiguously, which
  // is also the tie-break.
  std::vector<std::pair<double, uint32_t>> keyed(n);
  auto sort_run = [&](size_t lo, size_t hi, auto run_key) {
    for (size_t j = lo; j < hi; ++j) {
      keyed[j] = {run_key(boxes[order[j]]), order[j]};
    }
    std::sort(keyed.begin() + lo, keyed.begin() + hi);
    for (size_t j = lo; j < hi; ++j) order[j] = keyed[j].second;
  };

  const size_t cap = kStixNodeCapacity;
  size_t leaves = (n + cap - 1) / cap;
  size_t s =
      static_cast<size_t>(std::ceil(std::cbrt(static_cast<double>(leaves))));
  size_t slab = s * s * cap;
  size_t subslab = s * cap;

  sort_run(0, n, x_key);
  for (size_t lo = 0; lo < n; lo += slab) {
    size_t hi = std::min(lo + slab, n);
    sort_run(lo, hi, y_key);
    for (size_t slo = lo; slo < hi; slo += subslab) {
      sort_run(slo, std::min(slo + subslab, hi), t_key);
    }
  }
  return order;
}

std::string StixPathFor(const std::string& stpq_path) {
  return fs::path(stpq_path).replace_extension(".stix").string();
}

Status WriteStixFile(const std::string& stix_path, const StixBuildInput& input,
                     const StpqIdentity& source) {
  const uint64_t n = input.boxes.size();
  if (input.ids.size() != n || input.offsets.size() != n + 1) {
    return Status::InvalidArgument("stix build input arrays disagree for " +
                                   stix_path);
  }
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("too many records for a stix sidecar: " +
                                   stix_path);
  }

  // STR bulk load over records already in leaf order: pack leaves over
  // consecutive runs, then internal levels bottom-up until one root (root
  // is the LAST node).
  std::vector<StixNode> nodes;
  size_t level_begin = 0;
  for (uint64_t lo = 0; lo < n; lo += kStixNodeCapacity) {
    StixNode node = EmptyNode();
    node.leaf = 1;
    node.first = static_cast<uint32_t>(lo);
    node.count = static_cast<uint32_t>(
        std::min<uint64_t>(kStixNodeCapacity, n - lo));
    for (uint32_t i = 0; i < node.count; ++i) {
      const STBox& box = input.boxes[lo + i];
      if (!IsValidEnvelope(box)) continue;
      ExtendNode(&node, box.mbr.x_min, box.mbr.y_min, box.mbr.x_max,
                 box.mbr.y_max, box.time.start(), box.time.end());
    }
    nodes.push_back(node);
  }
  while (nodes.size() - level_begin > 1) {
    size_t level_end = nodes.size();
    for (size_t lo = level_begin; lo < level_end; lo += kStixNodeCapacity) {
      StixNode node = EmptyNode();
      node.leaf = 0;
      node.first = static_cast<uint32_t>(lo);
      node.count = static_cast<uint32_t>(
          std::min<size_t>(kStixNodeCapacity, level_end - lo));
      for (uint32_t i = 0; i < node.count; ++i) {
        const StixNode& child = nodes[lo + i];
        if (!NodeValid(child)) continue;
        ExtendNode(&node, child.x_min, child.y_min, child.x_max, child.y_max,
                   child.t_min, child.t_max);
      }
      nodes.push_back(node);
    }
    level_begin = level_end;
  }

  // Inverted index: postings are record positions sorted by (id,
  // position), grouped into one run per id by the directory.
  std::vector<std::pair<int64_t, uint32_t>> by_id;
  by_id.reserve(n);
  for (uint64_t j = 0; j < n; ++j) {
    by_id.emplace_back(input.ids[j], static_cast<uint32_t>(j));
  }
  std::sort(by_id.begin(), by_id.end());
  std::vector<StixIdEntry> id_dir;
  std::vector<uint32_t> postings;
  postings.reserve(n);
  for (uint64_t j = 0; j < n;) {
    StixIdEntry entry;
    entry.id = by_id[j].first;
    entry.first = postings.size();
    while (j < n && by_id[j].first == entry.id) {
      postings.push_back(by_id[j].second);
      ++j;
    }
    entry.count = postings.size() - entry.first;
    id_dir.push_back(entry);
  }

  StixLayout layout = ComputeStixLayout(n, nodes.size(), id_dir.size());
  StixHeader header;
  std::memcpy(header.magic, kStixMagic, sizeof(kStixMagic));
  header.version = kStixVersion;
  header.record_count = n;
  header.node_count = nodes.size();
  header.id_count = id_dir.size();
  header.source_size = source.size;
  header.source_mtime = source.mtime_stamp;
  header.source_fingerprint = source.header_fingerprint;
  header.file_bytes = layout.total;
  for (uint32_t s = 0; s < kStixNumSections; ++s) {
    header.section_off[s] = layout.off[s];
  }

  std::error_code ec;
  fs::path parent = fs::path(stix_path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  // Staged write + atomic publish, like every persistent writer: a reader
  // racing a rebuild sees the old sidecar or the new one, never a torn one.
  std::ofstream out(TmpPathFor(stix_path), std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + stix_path);
  }
  uint64_t pos = 0;
  auto write_raw = [&](const void* data, uint64_t bytes) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    pos += bytes;
  };
  auto pad_to = [&](uint64_t target) {
    static constexpr char kZeros[kStixSectionAlign] = {};
    while (pos < target) {
      uint64_t chunk = std::min<uint64_t>(sizeof(kZeros), target - pos);
      write_raw(kZeros, chunk);
    }
  };
  write_raw(&header, sizeof(header));
  auto section = [&](StixSection s, const void* data, uint64_t bytes) {
    pad_to(layout.off[s]);
    write_raw(data, bytes);
  };
  section(kStixNodes, nodes.data(), nodes.size() * sizeof(StixNode));
  // Envelope columns, one at a time through one buffer (every column is 8
  // bytes wide), so a leaf hit refines over one contiguous zero-copy run.
  std::vector<uint64_t> column(n);
  auto write_column = [&](StixSection s, auto field) {
    for (uint64_t j = 0; j < n; ++j) {
      const auto value = field(input.boxes[j]);
      std::memcpy(&column[j], &value, sizeof(uint64_t));
    }
    section(s, column.data(), n * sizeof(uint64_t));
  };
  write_column(kStixColXMin, [](const STBox& b) { return b.mbr.x_min; });
  write_column(kStixColYMin, [](const STBox& b) { return b.mbr.y_min; });
  write_column(kStixColXMax, [](const STBox& b) { return b.mbr.x_max; });
  write_column(kStixColYMax, [](const STBox& b) { return b.mbr.y_max; });
  write_column(kStixColTMin, [](const STBox& b) { return b.time.start(); });
  write_column(kStixColTMax, [](const STBox& b) { return b.time.end(); });
  section(kStixRecOffsets, input.offsets.data(), (n + 1) * sizeof(uint64_t));
  section(kStixIdDir, id_dir.data(), id_dir.size() * sizeof(StixIdEntry));
  section(kStixPostings, postings.data(), postings.size() * sizeof(uint32_t));

  return FinishWrite(out, stix_path, nullptr);
}

StixIndex::~StixIndex() { Unmap(); }

void StixIndex::Unmap() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), map_len_);
    base_ = nullptr;
    map_len_ = 0;
  }
}

StixIndex::StixIndex(StixIndex&& other) noexcept { *this = std::move(other); }

StixIndex& StixIndex::operator=(StixIndex&& other) noexcept {
  if (this == &other) return *this;
  Unmap();
  header_ = other.header_;
  base_ = other.base_;
  map_len_ = other.map_len_;
  nodes_ = other.nodes_;
  col_x_min_ = other.col_x_min_;
  col_y_min_ = other.col_y_min_;
  col_x_max_ = other.col_x_max_;
  col_y_max_ = other.col_y_max_;
  col_t_min_ = other.col_t_min_;
  col_t_max_ = other.col_t_max_;
  rec_offsets_ = other.rec_offsets_;
  id_dir_ = other.id_dir_;
  postings_ = other.postings_;
  other.base_ = nullptr;
  other.map_len_ = 0;
  return *this;
}

StatusOr<StixIndex> StixIndex::Open(const std::string& stix_path,
                                    const StpqIdentity& source) {
  StixIndex index;
  ST4ML_RETURN_IF_ERROR(index.Validate(stix_path, source));
  return index;
}

StatusOr<StixIndex> StixIndex::Open(const std::string& stix_path,
                                    const std::string& stpq_path) {
  // An unreadable stat or header on the source is treated as stale:
  // serving index hits for a file we cannot even inspect would be worse.
  StatusOr<StpqIdentity> source = ReadStpqIdentity(stpq_path);
  if (!source.ok()) {
    return Status::InvalidArgument("stale stix sidecar for " + stpq_path);
  }
  return Open(stix_path, *source);
}

StatusOr<std::vector<uint32_t>> ReadStixPostings(const std::string& stix_path,
                                                 const StpqIdentity& source) {
  const int fd = ::open(stix_path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such stix file: " + stix_path);
    }
    return Status::IOError("cannot open " + stix_path);
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  auto read_exact = [fd](void* data, uint64_t bytes, uint64_t at) {
    return ::pread(fd, data, bytes, static_cast<off_t>(at)) ==
           static_cast<ssize_t>(bytes);
  };
  struct stat st;
  StixHeader header;
  if (::fstat(fd, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) < sizeof(header) ||
      !read_exact(&header, sizeof(header), 0)) {
    return Status::InvalidArgument("truncated stix header in " + stix_path);
  }
  ST4ML_RETURN_IF_ERROR(CheckStixHeader(
      header, static_cast<uint64_t>(st.st_size), source, stix_path));
  std::vector<uint32_t> postings(header.record_count);
  if (!read_exact(postings.data(), postings.size() * sizeof(uint32_t),
                  header.section_off[kStixPostings])) {
    return Status::IOError("short read of stix postings in " + stix_path);
  }
  return postings;
}

StatusOr<uint64_t> RebuildIndexedPart(const std::string& stpq_path) {
  auto kind = ReadStpqKind(stpq_path);
  if (!kind.ok()) return kind.status();
  const fs::path path(stpq_path);
  const std::string dir =
      path.has_parent_path() ? path.parent_path().string() : ".";
  auto rebuild = [&](auto records) -> StatusOr<uint64_t> {
    if (!records.ok()) return records.status();
    auto part = WriteIndexedPart(dir, path.filename().string(),
                                 std::move(*records), RetryPolicy::None(),
                                 nullptr);
    if (!part.ok()) return part.status();
    return part->count;
  };
  if (*kind == kStpqKindEvent) {
    return rebuild(ReadStpqFile<EventRecord>(stpq_path));
  }
  return rebuild(ReadStpqFile<TrajRecord>(stpq_path));
}

Status StixIndex::Validate(const std::string& stix_path,
                           const StpqIdentity& source) {
  int fd = ::open(stix_path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such stix file: " + stix_path);
    }
    return Status::IOError("cannot open " + stix_path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + stix_path);
  }
  const uint64_t actual_bytes = static_cast<uint64_t>(st.st_size);
  if (actual_bytes < sizeof(StixHeader)) {
    ::close(fd);
    return Status::InvalidArgument("truncated stix header in " + stix_path);
  }
  void* map = ::mmap(nullptr, actual_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap " + stix_path);
  }
  base_ = static_cast<const uint8_t*>(map);
  map_len_ = static_cast<size_t>(actual_bytes);

  std::memcpy(&header_, base_, sizeof(header_));
  ST4ML_RETURN_IF_ERROR(CheckStixHeader(header_, actual_bytes, source,
                                        stix_path));
  const uint64_t n = header_.record_count;
  const uint64_t* off = header_.section_off;

  nodes_ = reinterpret_cast<const StixNode*>(base_ + off[kStixNodes]);
  col_x_min_ = reinterpret_cast<const double*>(base_ + off[kStixColXMin]);
  col_y_min_ = reinterpret_cast<const double*>(base_ + off[kStixColYMin]);
  col_x_max_ = reinterpret_cast<const double*>(base_ + off[kStixColXMax]);
  col_y_max_ = reinterpret_cast<const double*>(base_ + off[kStixColYMax]);
  col_t_min_ = reinterpret_cast<const int64_t*>(base_ + off[kStixColTMin]);
  col_t_max_ = reinterpret_cast<const int64_t*>(base_ + off[kStixColTMax]);
  rec_offsets_ =
      reinterpret_cast<const uint64_t*>(base_ + off[kStixRecOffsets]);
  id_dir_ = reinterpret_cast<const StixIdEntry*>(base_ + off[kStixIdDir]);
  postings_ = reinterpret_cast<const uint32_t*>(base_ + off[kStixPostings]);

  // Node structure: children strictly below their parent (the bottom-up
  // packing invariant), leaf runs inside the record range, no empty nodes.
  for (uint64_t i = 0; i < header_.node_count; ++i) {
    const StixNode& node = nodes_[i];
    const uint64_t first = node.first;
    const uint64_t count = node.count;
    if (count == 0) {
      return Status::InvalidArgument("empty stix node in " + stix_path);
    }
    if (node.leaf != 0) {
      if (first + count > n) {
        return Status::InvalidArgument("stix leaf run out of bounds in " +
                                       stix_path);
      }
    } else if (first + count > i) {
      return Status::InvalidArgument("stix child range out of bounds in " +
                                     stix_path);
    }
  }
  // `postings` must be a permutation of the record positions — duplicates
  // would return duplicated records.
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (uint64_t j = 0; j < n; ++j) {
    if (postings_[j] >= n || seen[postings_[j]]) {
      return Status::InvalidArgument(
          "stix postings are not a permutation in " + stix_path);
    }
    seen[postings_[j]] = true;
  }
  // Record offsets: monotone, starting at or after the STPQ header, ending
  // inside the source file — a postings/leaf hit can never resolve to a
  // byte range past EOF.
  if (n > 0 && rec_offsets_[0] < kStpqHeaderBytes) {
    return Status::InvalidArgument("stix record offsets below header in " +
                                   stix_path);
  }
  for (uint64_t j = 0; j < n; ++j) {
    if (rec_offsets_[j] > rec_offsets_[j + 1]) {
      return Status::InvalidArgument("stix record offsets not monotone in " +
                                     stix_path);
    }
  }
  if (rec_offsets_[n] > header_.source_size) {
    return Status::InvalidArgument("stix record offsets past EOF in " +
                                   stix_path);
  }
  // Id directory: sorted, postings runs in bounds and covering exactly
  // the postings section.
  uint64_t postings_total = 0;
  for (uint64_t d = 0; d < header_.id_count; ++d) {
    const StixIdEntry& entry = id_dir_[d];
    if (d > 0 && id_dir_[d - 1].id >= entry.id) {
      return Status::InvalidArgument("stix id directory unsorted in " +
                                     stix_path);
    }
    if (entry.first + entry.count > n || entry.count == 0) {
      return Status::InvalidArgument("stix postings run out of bounds in " +
                                     stix_path);
    }
    postings_total += entry.count;
  }
  if (postings_total != n) {
    return Status::InvalidArgument("stix postings do not cover records in " +
                                   stix_path);
  }
  return Status::Ok();
}

void StixIndex::QueryBox(const accel::BoxFilterQuery& query,
                         std::vector<uint32_t>* hits,
                         StixQueryStats* stats) const {
  hits->clear();
  if (header_.node_count == 0) return;
  PageTouches pages;
  const uint64_t nodes_off = header_.section_off[kStixNodes];

  // Root-to-leaf walk over the mapped nodes; every visited node is a page
  // touch whether or not it prunes.
  std::vector<uint32_t> stack;
  stack.push_back(static_cast<uint32_t>(header_.node_count - 1));
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  while (!stack.empty()) {
    uint32_t idx = stack.back();
    stack.pop_back();
    const StixNode& node = nodes_[idx];
    pages.Touch(nodes_off + idx * sizeof(StixNode), sizeof(StixNode));
    if (!NodeIntersects(query, node)) continue;
    if (node.leaf != 0) {
      runs.emplace_back(node.first, node.first + node.count);
    } else {
      for (uint32_t c = 0; c < node.count; ++c) stack.push_back(node.first + c);
    }
  }
  std::sort(runs.begin(), runs.end());
  // Coalesce adjacent leaf runs into maximal contiguous column spans: one
  // kernel pass (and one page-touch accounting) per span.
  size_t out = 0;
  for (const auto& run : runs) {
    if (out > 0 && run.first <= runs[out - 1].second) {
      runs[out - 1].second = std::max(runs[out - 1].second, run.second);
    } else {
      runs[out++] = run;
    }
  }
  runs.resize(out);

  std::vector<uint8_t> bitmap;
  for (const auto& [lo, hi] : runs) {
    const size_t len = hi - lo;
    accel::EnvelopeView view{col_x_min_ + lo, col_y_min_ + lo,
                             col_x_max_ + lo, col_y_max_ + lo,
                             col_t_min_ + lo, col_t_max_ + lo, len};
    bitmap.assign(len, 0);
    accel::Active().FilterBoxes(query, view, bitmap.data());
    accel::BackendRegistry::Instance().CountBatch(len);
    for (uint32_t s = kStixColXMin; s <= kStixColTMax; ++s) {
      // Every column is 8 bytes wide (f64 or i64).
      pages.Touch(header_.section_off[s] + static_cast<uint64_t>(lo) * 8,
                  len * 8);
    }
    for (size_t j = 0; j < len; ++j) {
      if (bitmap[j] != 0) hits->push_back(static_cast<uint32_t>(lo + j));
    }
  }
  if (stats != nullptr) stats->pages_read += pages.count();
}

void StixIndex::LookupIds(const std::vector<int64_t>& ids,
                          const accel::BoxFilterQuery& query, bool apply_box,
                          std::vector<uint32_t>* hits,
                          StixQueryStats* stats) const {
  hits->clear();
  if (header_.id_count == 0) return;
  PageTouches pages;
  const uint64_t dir_off = header_.section_off[kStixIdDir];
  const uint64_t post_off = header_.section_off[kStixPostings];

  for (int64_t id : ids) {
    // Manual binary search so every probed directory entry counts as a
    // page touch — that IS the I/O an external-memory lookup pays.
    uint64_t lo = 0;
    uint64_t hi = header_.id_count;
    const StixIdEntry* found = nullptr;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      pages.Touch(dir_off + mid * sizeof(StixIdEntry), sizeof(StixIdEntry));
      if (id_dir_[mid].id < id) {
        lo = mid + 1;
      } else if (id_dir_[mid].id > id) {
        hi = mid;
      } else {
        found = &id_dir_[mid];
        break;
      }
    }
    if (found == nullptr) continue;
    pages.Touch(post_off + found->first * sizeof(uint32_t),
                found->count * sizeof(uint32_t));
    if (stats != nullptr) stats->postings_hits += found->count;
    hits->insert(hits->end(), postings_ + found->first,
                 postings_ + found->first + found->count);
  }

  if (apply_box && !hits->empty()) {
    // Refine the candidates' envelopes through ONE kernel pass — the exact
    // predicate every other path uses.
    for (uint32_t pos : *hits) {
      for (uint32_t s = kStixColXMin; s <= kStixColTMax; ++s) {
        pages.Touch(header_.section_off[s] + static_cast<uint64_t>(pos) * 8,
                    8);
      }
    }
    const accel::EnvelopeView cols{col_x_min_, col_y_min_, col_x_max_,
                                   col_y_max_, col_t_min_, col_t_max_,
                                   header_.record_count};
    accel::FilterPositions(query, cols, hits);
  }
  // Each id's postings ascend; several ids' runs interleave.
  std::sort(hits->begin(), hits->end());
  if (stats != nullptr) stats->pages_read += pages.count();
}

}  // namespace st4ml
