#include "instances/structures.h"

#include <algorithm>
#include <cmath>

namespace st4ml {

namespace {

bool IsFinite(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

/// The step index of `offset`, clamped into [0, count - 1] in floating point
/// before the cast, so far-away coordinates never overflow the int.
int ClampedStep(double offset, double step, int count) {
  double guess = std::floor(offset / step);
  if (!(guess > 0.0)) return 0;
  if (guess >= count - 1) return count - 1;
  return static_cast<int>(guess);
}

/// Sets [*first, *last] to the indices of the `count` closed intervals
/// [lower(i), upper(i)] that meet [lo, hi]. Both bounds are nondecreasing in
/// i and start near `origin + i * step`: the arithmetic guess is usually a
/// step or two off, and the walks end on the exact range even where rounding
/// collapses many steps onto one coordinate.
template <typename Lower, typename Upper>
void AxisRange(double lo, double hi, double origin, double step, int count,
               Lower lower, Upper upper, int* first, int* last) {
  int f = ClampedStep(lo - origin, step, count);
  while (f > 0 && upper(f - 1) >= lo) --f;
  while (f < count && upper(f) < lo) ++f;
  int l = ClampedStep(hi - origin, step, count);
  while (l < count - 1 && lower(l + 1) <= hi) ++l;
  while (l >= 0 && lower(l) > hi) --l;
  *first = f;
  *last = l;
}

/// Calls `fn(i)` on the cells of window `w` of a row-major grid `nx` cells
/// wide, in ascending index order, until it returns true; returns whether
/// it did.
template <typename Window, typename Fn>
bool VisitCells(int nx, const Window& w, Fn fn) {
  for (int iy = w.y_first; iy <= w.y_last; ++iy) {
    for (int ix = w.x_first; ix <= w.x_last; ++ix) {
      if (fn(static_cast<size_t>(iy) * nx + ix)) return true;
    }
  }
  return false;
}

}  // namespace

TemporalStructure TemporalStructure::Regular(const Duration& range,
                                             int num_bins) {
  TemporalStructure structure;
  structure.range_ = range;
  if (num_bins <= 0) return structure;
  int64_t seconds = range.Seconds();
  structure.bins_.reserve(num_bins);
  for (int i = 0; i < num_bins; ++i) {
    int64_t lo = range.start() + seconds * i / num_bins;
    int64_t hi = range.start() + seconds * (i + 1) / num_bins;
    structure.bins_.push_back(Duration(lo, hi));
  }
  if (seconds % num_bins == 0) {
    structure.regular_ = true;
    structure.width_ = seconds / num_bins;
  }
  return structure;
}

TemporalStructure TemporalStructure::RegularByInterval(const Duration& range,
                                                       int64_t interval_s) {
  TemporalStructure structure;
  structure.range_ = range;
  structure.bins_ = TemporalSliding(range, interval_s);
  structure.regular_ = !structure.bins_.empty();
  structure.width_ = interval_s;
  return structure;
}

TemporalStructure TemporalStructure::Irregular(std::vector<Duration> bins) {
  TemporalStructure structure;
  structure.bins_ = std::move(bins);
  if (!structure.bins_.empty()) {
    structure.range_ = structure.bins_.front();
    for (const Duration& bin : structure.bins_) structure.range_.Extend(bin);
  }
  return structure;
}

size_t TemporalStructure::FindBin(int64_t t) const {
  if (bins_.empty()) return kNoBin;
  if (regular_ && width_ > 0) {
    if (t < bins_.front().start() || t > bins_.back().end()) return kNoBin;
    size_t idx = static_cast<size_t>((t - bins_.front().start()) / width_);
    if (idx >= bins_.size()) idx = bins_.size() - 1;
    // Closed bins share boundaries: step back to the FIRST containing bin so
    // arithmetic lookup agrees with a front-to-back scan.
    while (idx > 0 && bins_[idx - 1].Contains(t)) --idx;
    return bins_[idx].Contains(t) ? idx : kNoBin;
  }
  for (size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i].Contains(t)) return i;
  }
  return kNoBin;
}

std::vector<size_t> TemporalStructure::IntersectingBins(
    const Duration& d) const {
  std::vector<size_t> out;
  if (regular_ && width_ > 0 && !bins_.empty()) {
    if (d.end() < bins_.front().start() || d.start() > bins_.back().end()) {
      return out;
    }
    int64_t base = bins_.front().start();
    int64_t lo_raw = d.start() < base ? 0 : (d.start() - base) / width_;
    size_t lo = static_cast<size_t>(lo_raw);
    if (lo >= bins_.size()) lo = bins_.size() - 1;
    while (lo > 0 && bins_[lo - 1].Intersects(d)) --lo;
    for (size_t i = lo; i < bins_.size() && bins_[i].start() <= d.end(); ++i) {
      if (bins_[i].Intersects(d)) out.push_back(i);
    }
    return out;
  }
  for (size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i].Intersects(d)) out.push_back(i);
  }
  return out;
}

SpatialStructure SpatialStructure::Grid(const Mbr& extent, int nx, int ny) {
  SpatialStructure structure;
  structure.extent_ = extent;
  structure.grid_ = true;
  structure.nx_ = nx;
  structure.ny_ = ny;
  // Row-major, y outer — and the same arithmetic as the baselines' loops, so
  // cell boundaries are bitwise identical.
  double dx = extent.Width() / nx;
  double dy = extent.Height() / ny;
  if (nx > 0 && ny > 0 && dx > 0 && dy > 0 && std::isfinite(dx) &&
      std::isfinite(dy)) {
    structure.step_x_ = dx;
    structure.step_y_ = dy;
  }
  structure.cells_.reserve(static_cast<size_t>(nx) * ny);
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      Mbr cell(extent.x_min + ix * dx, extent.y_min + iy * dy,
               extent.x_min + (ix + 1) * dx, extent.y_min + (iy + 1) * dy);
      structure.mbrs_.push_back(cell);
      structure.cells_.push_back(Polygon::FromMbr(cell));
    }
  }
  return structure;
}

SpatialStructure SpatialStructure::Irregular(std::vector<Polygon> cells) {
  SpatialStructure structure;
  structure.cells_ = std::move(cells);
  structure.mbrs_.reserve(structure.cells_.size());
  for (const Polygon& cell : structure.cells_) {
    structure.mbrs_.push_back(cell.mbr());
    structure.extent_.Extend(cell.mbr());
  }
  return structure;
}

SpatialStructure::Window SpatialStructure::CellWindow(const Mbr& query) const {
  Window w;
  AxisRange(
      query.x_min, query.x_max, extent_.x_min, step_x_, nx_,
      [this](int ix) { return mbrs_[ix].x_min; },
      [this](int ix) { return mbrs_[ix].x_max; }, &w.x_first, &w.x_last);
  AxisRange(
      query.y_min, query.y_max, extent_.y_min, step_y_, ny_,
      [this](int iy) { return mbrs_[static_cast<size_t>(iy) * nx_].y_min; },
      [this](int iy) { return mbrs_[static_cast<size_t>(iy) * nx_].y_max; },
      &w.y_first, &w.y_last);
  return w;
}

size_t SpatialStructure::FindCell(const Point& p) const {
  if (Windowed() && IsFinite(p)) {
    size_t found = kNoCell;
    VisitCells(nx_, CellWindow(Mbr(p)), [&](size_t i) {
      if (!cells_[i].ContainsPoint(p)) return false;
      found = i;
      return true;
    });
    return found;
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].ContainsPoint(p)) return i;
  }
  return kNoCell;
}

std::vector<size_t> SpatialStructure::IntersectingCells(
    const LineString& line) const {
  std::vector<size_t> out;
  const std::vector<Point>& pts = line.points();
  if (Windowed() && std::all_of(pts.begin(), pts.end(), IsFinite)) {
    if (pts.size() == 1) {
      VisitCells(nx_, CellWindow(Mbr(pts[0])), [&](size_t i) {
        if (mbrs_[i].ContainsPoint(pts[0])) out.push_back(i);
        return false;
      });
      return out;
    }
    // A segment can only hit cells its bounding box meets: visit each
    // segment's window, then merge into the scan's ascending order.
    for (size_t k = 1; k < pts.size(); ++k) {
      const Point& a = pts[k - 1];
      const Point& b = pts[k];
      Mbr box(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
              std::max(a.y, b.y));
      VisitCells(nx_, CellWindow(box), [&](size_t i) {
        if (SegmentIntersectsMbr(a, b, mbrs_[i])) out.push_back(i);
        return false;
      });
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  Mbr line_mbr = line.ComputeMbr();
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (!line_mbr.Intersects(mbrs_[i])) continue;
    bool hit = grid_ ? line.IntersectsMbr(mbrs_[i])
                     : cells_[i].IntersectsLineString(line);
    if (hit) out.push_back(i);
  }
  return out;
}

std::vector<size_t> SpatialStructure::ContainingCells(const Point& p) const {
  std::vector<size_t> out;
  if (Windowed() && IsFinite(p)) {
    VisitCells(nx_, CellWindow(Mbr(p)), [&](size_t i) {
      if (cells_[i].ContainsPoint(p)) out.push_back(i);
      return false;
    });
    return out;
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].ContainsPoint(p)) out.push_back(i);
  }
  return out;
}

RasterStructure RasterStructure::Regular(const Mbr& extent, int nx, int ny,
                                         const Duration& range, int num_bins) {
  RasterStructure structure;
  structure.spatial_ = SpatialStructure::Grid(extent, nx, ny);
  structure.temporal_ = TemporalStructure::Regular(range, num_bins);
  return structure;
}

RasterStructure RasterStructure::CrossProduct(std::vector<Polygon> cells,
                                              std::vector<Duration> bins) {
  RasterStructure structure;
  structure.spatial_ = SpatialStructure::Irregular(std::move(cells));
  structure.temporal_ = TemporalStructure::Irregular(std::move(bins));
  return structure;
}

}  // namespace st4ml
