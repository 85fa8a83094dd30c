#ifndef ST4ML_INSTANCES_STRUCTURES_H_
#define ST4ML_INSTANCES_STRUCTURES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/mbr.h"
#include "geometry/polygon.h"
#include "temporal/duration.h"

namespace st4ml {

/// The temporal skeleton of a TimeSeries: an ordered list of closed time
/// bins. Adjacent regular bins share their boundary instant; assignment of
/// an instant is always "first bin in order that contains it", so every
/// instant lands in exactly one bin and agrees with a naive front-to-back
/// scan over the bins (which is what the baselines do).
class TemporalStructure {
 public:
  TemporalStructure() = default;

  /// `num_bins` equal-width bins spanning `range`.
  static TemporalStructure Regular(const Duration& range, int num_bins);

  /// Bins of `interval_s` seconds covering `range` — identical, bin for bin,
  /// to TemporalSliding(range, interval_s).
  static TemporalStructure RegularByInterval(const Duration& range,
                                             int64_t interval_s);

  /// Explicit, possibly irregular bins.
  static TemporalStructure Irregular(std::vector<Duration> bins);

  size_t size() const { return bins_.size(); }
  const Duration& bin(size_t i) const { return bins_[i]; }
  const std::vector<Duration>& bins() const { return bins_; }
  const Duration& range() const { return range_; }

  static constexpr size_t kNoBin = static_cast<size_t>(-1);

  /// Index of the FIRST bin containing instant `t`, or kNoBin.
  size_t FindBin(int64_t t) const;

  /// Indices of every bin intersecting `d`, in order.
  std::vector<size_t> IntersectingBins(const Duration& d) const;

 private:
  std::vector<Duration> bins_;
  Duration range_;
  // Regular-bin fast path: with equal-width bins the first containing bin is
  // computable arithmetically (minus a one-step boundary correction).
  bool regular_ = false;
  int64_t width_ = 0;
};

/// The spatial skeleton of a SpatialMap: an ordered list of cells. Grid
/// cells are built row-major (y outer, x inner) with the exact same
/// floating-point arithmetic the hand-rolled baseline loops use, so the two
/// sides test bitwise-identical rectangles.
class SpatialStructure {
 public:
  SpatialStructure() = default;

  static SpatialStructure Grid(const Mbr& extent, int nx, int ny);
  static SpatialStructure Irregular(std::vector<Polygon> cells);

  size_t size() const { return cells_.size(); }
  const Polygon& cell(size_t i) const { return cells_[i]; }
  const std::vector<Polygon>& cells() const { return cells_; }
  const Mbr& cell_mbr(size_t i) const { return mbrs_[i]; }
  bool is_grid() const { return grid_; }
  const Mbr& extent() const { return extent_; }

  static constexpr size_t kNoCell = static_cast<size_t>(-1);

  /// Index of the FIRST cell containing `p` (front-to-back scan order), or
  /// kNoCell.
  size_t FindCell(const Point& p) const;

  /// Indices of every cell the polyline intersects, in order. Grid cells use
  /// the exact rectangle predicate; irregular cells the polygon one.
  std::vector<size_t> IntersectingCells(const LineString& line) const;

  /// Indices of every cell containing `p`, in order.
  std::vector<size_t> ContainingCells(const Point& p) const;

 private:
  /// Inclusive column and row ranges of grid cells; empty when a first
  /// index exceeds its last.
  struct Window {
    int x_first, x_last, y_first, y_last;
  };

  /// Whether grid lookups may compute their candidate cells in closed form:
  /// a grid with positive, finite cell steps. Degenerate grids scan.
  bool Windowed() const { return step_x_ > 0 && step_y_ > 0; }

  /// The grid cells whose closed bounds meet the finite rectangle `query`:
  /// an arithmetic guess from the cell steps, walked to the exact range on
  /// the stored cell bounds (the same guess-then-check as FindBin), so the
  /// exact predicates run on a superset of the cells a full scan accepts.
  Window CellWindow(const Mbr& query) const;

  std::vector<Polygon> cells_;
  std::vector<Mbr> mbrs_;
  Mbr extent_;
  bool grid_ = false;
  int nx_ = 0;
  int ny_ = 0;
  // Cell width and height of a windowed grid; 0 otherwise.
  double step_x_ = 0.0;
  double step_y_ = 0.0;
};

/// The skeleton of a Raster: the cross product of spatial cells and temporal
/// bins, laid out bin-major (index = bin * num_cells + cell) like the
/// baselines' flat arrays.
class RasterStructure {
 public:
  RasterStructure() = default;

  /// nx x ny grid cells x `num_bins` equal temporal bins.
  static RasterStructure Regular(const Mbr& extent, int nx, int ny,
                                 const Duration& range, int num_bins);

  /// Arbitrary cells x arbitrary bins.
  static RasterStructure CrossProduct(std::vector<Polygon> cells,
                                      std::vector<Duration> bins);

  size_t num_cells() const { return spatial_.size(); }
  size_t num_bins() const { return temporal_.size(); }
  size_t size() const { return num_cells() * num_bins(); }

  const SpatialStructure& spatial() const { return spatial_; }
  const TemporalStructure& temporal() const { return temporal_; }

  const Polygon& cell(size_t flat) const {
    return spatial_.cell(flat % num_cells());
  }
  const Duration& bin(size_t flat) const {
    return temporal_.bin(flat / num_cells());
  }
  size_t FlatIndex(size_t cell, size_t bin) const {
    return bin * num_cells() + cell;
  }

 private:
  SpatialStructure spatial_;
  TemporalStructure temporal_;
};

}  // namespace st4ml

#endif  // ST4ML_INSTANCES_STRUCTURES_H_
