#include "baselines/geomesa_like.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "index/zcurve.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

constexpr size_t kBlocks = 64;

std::string BlockFileName(size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "block-%03zu.stpq", index);
  return name;
}

Point CenterOf(const STBox& box) {
  return Point((box.mbr.x_min + box.mbr.x_max) / 2.0,
               (box.mbr.y_min + box.mbr.y_max) / 2.0);
}

/// Z2-orders records and writes them in ~kBlocks key-ordered blocks plus a
/// per-block envelope sidecar (the "index" selection prunes with).
template <typename RecordT>
Status IngestRecords(const std::vector<RecordT>& records,
                     const std::string& dir) {
  std::vector<STBox> boxes;
  boxes.reserve(records.size());
  Mbr extent;
  for (const RecordT& r : records) {
    boxes.push_back(r.ComputeSTBox());
    extent.Extend(CenterOf(boxes.back()));
  }
  if (extent.IsEmpty()) extent = Mbr(0.0, 0.0, 1.0, 1.0);
  Z2Curve curve(extent, 8);

  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return curve.Encode(CenterOf(boxes[a])) < curve.Encode(CenterOf(boxes[b]));
  });

  size_t blocks = std::min(kBlocks, std::max<size_t>(records.size(), 1));
  StpqManifest meta;
  meta.parts.reserve(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    size_t lo = records.size() * b / blocks;
    size_t hi = records.size() * (b + 1) / blocks;
    std::vector<RecordT> block;
    block.reserve(hi - lo);
    STBox bounds;
    for (size_t i = lo; i < hi; ++i) {
      block.push_back(records[order[i]]);
      if (IsValidEnvelope(boxes[order[i]])) bounds.Extend(boxes[order[i]]);
    }
    std::string name = BlockFileName(b);
    ST4ML_RETURN_IF_ERROR(WriteStpqFile(dir + "/" + name, block));
    StpqPartMeta entry;
    entry.file = std::move(name);
    entry.box = bounds;
    entry.count = block.size();
    meta.parts.push_back(std::move(entry));
  }
  return WriteStpqMeta(dir + "/blocks.meta", meta);
}

bool MatchesQuery(const GeoObject& o, const Mbr& range, const Duration& time) {
  if (!o.geom.ComputeMbr().Intersects(range)) return false;
  std::vector<int64_t> times = ParseGeoObjectTimes(o);
  if (times.empty()) return false;
  return Duration(times.front(), times.back()).Intersects(time);
}

template <typename RecordT, typename ToObject>
StatusOr<Dataset<GeoObject>> SelectRecords(
    const std::shared_ptr<ExecutionContext>& ctx, const std::string& dir,
    const Mbr& range, const Duration& time, ToObject to_object) {
  auto meta = ReadStpqMeta(dir + "/blocks.meta");
  if (!meta.ok()) return meta.status();
  STBox query(range, time);
  Dataset<GeoObject>::Partitions parts;
  for (const StpqPartMeta& block : meta->parts) {
    if (!block.box.Intersects(query)) continue;
    auto records = ReadStpqFile<RecordT>(dir + "/" + block.file);
    if (!records.ok()) return records.status();
    std::vector<GeoObject> kept;
    for (const RecordT& r : *records) {
      GeoObject o = to_object(r);
      if (MatchesQuery(o, range, time)) kept.push_back(std::move(o));
    }
    parts.push_back(std::move(kept));
  }
  if (parts.empty()) parts.emplace_back();  // no block matched: empty result
  return Dataset<GeoObject>::FromPartitions(ctx, std::move(parts));
}

}  // namespace

Status GeoMesaLike::IngestEvents(const std::vector<EventRecord>& records,
                                 const std::string& dir) {
  return IngestRecords(records, dir);
}

Status GeoMesaLike::IngestTrajs(const std::vector<TrajRecord>& records,
                                const std::string& dir) {
  return IngestRecords(records, dir);
}

StatusOr<Dataset<GeoObject>> GeoMesaLike::SelectEvents(const std::string& dir,
                                                       const Mbr& range,
                                                       const Duration& time) {
  return SelectRecords<EventRecord>(
      ctx_, dir, range, time,
      [](const EventRecord& r) { return GeoObjectFromEvent(r); });
}

StatusOr<Dataset<GeoObject>> GeoMesaLike::SelectTrajs(const std::string& dir,
                                                      const Mbr& range,
                                                      const Duration& time) {
  return SelectRecords<TrajRecord>(
      ctx_, dir, range, time,
      [](const TrajRecord& r) { return GeoObjectFromTraj(r); });
}

}  // namespace st4ml
