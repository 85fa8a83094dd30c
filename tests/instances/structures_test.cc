#include "instances/structures.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "conversion/singular_to_collective.h"
#include "geometry/polygon.h"

namespace st4ml {
namespace {

TEST(TemporalStructureTest, RegularSplitsEvenly) {
  TemporalStructure ts = TemporalStructure::Regular(Duration(0, 7200), 2);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.bin(0).start(), 0);
  EXPECT_EQ(ts.bin(1).start(), 3600);
}

TEST(TemporalStructureTest, FindBinReturnsFirstContaining) {
  TemporalStructure ts = TemporalStructure::Regular(Duration(0, 7200), 2);
  EXPECT_EQ(ts.FindBin(0), 0u);
  EXPECT_EQ(ts.FindBin(3599), 0u);
  EXPECT_EQ(ts.FindBin(3600), 0u);  // boundary: FIRST containing bin wins
  EXPECT_EQ(ts.FindBin(3601), 1u);
  EXPECT_EQ(ts.FindBin(7200), 1u);
  EXPECT_EQ(ts.FindBin(9999), TemporalStructure::kNoBin);
  EXPECT_EQ(ts.FindBin(-1), TemporalStructure::kNoBin);
}

TEST(TemporalStructureTest, IntersectingBinsByExtentOverlap) {
  TemporalStructure ts = TemporalStructure::Regular(Duration(0, 10800), 3);
  std::vector<size_t> bins = ts.IntersectingBins(Duration(3000, 7300));
  EXPECT_EQ(bins, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(ts.IntersectingBins(Duration(100, 200)),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(ts.IntersectingBins(Duration(20000, 20001)).empty());
}

TEST(TemporalStructureTest, IrregularKeepsGivenBins) {
  TemporalStructure ts = TemporalStructure::Irregular(
      {Duration(0, 10), Duration(100, 200), Duration(150, 300)});
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.FindBin(160), 1u);  // first containing, despite overlap
}

// Bins of a range that ends near INT64_MAX, cut at a step nearly as large:
// stepping past the end must not overflow (UBSan checks it in CI), and the
// layout stays the clipped-tail sliding window.
TEST(TemporalStructureTest, RegularByIntervalNearInt64Max) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  TemporalStructure tail =
      TemporalStructure::RegularByInterval(Duration(kMax - 25, kMax), 10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.bin(0), Duration(kMax - 25, kMax - 15));
  EXPECT_EQ(tail.bin(1), Duration(kMax - 15, kMax - 5));
  EXPECT_EQ(tail.bin(2), Duration(kMax - 5, kMax));

  TemporalStructure wide = TemporalStructure::RegularByInterval(
      Duration(kMax - 100, kMax), kMax / 2);
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(wide.bin(0), Duration(kMax - 100, kMax));

  // The whole int64 line, whose span does not fit an int64, in four steps.
  const int64_t step = int64_t{1} << 62;
  TemporalStructure all =
      TemporalStructure::RegularByInterval(Duration(kMin, kMax), step);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.bin(0), Duration(kMin, kMin + step));
  EXPECT_EQ(all.bin(1), Duration(kMin + step, 0));
  EXPECT_EQ(all.bin(2), Duration(0, step));
  EXPECT_EQ(all.bin(3), Duration(step, kMax));
}

TEST(SpatialStructureTest, GridRowMajorLayout) {
  SpatialStructure grid = SpatialStructure::Grid(Mbr(0, 0, 4, 2), 4, 2);
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_TRUE(grid.is_grid());
  // y-outer, x-inner: cell 0 at (x=[0,1], y=[0,1]), cell 1 at x=[1,2] ...
  EXPECT_DOUBLE_EQ(grid.cell_mbr(0).x_min, 0.0);
  EXPECT_DOUBLE_EQ(grid.cell_mbr(1).x_min, 1.0);
  EXPECT_DOUBLE_EQ(grid.cell_mbr(4).y_min, 1.0);
  EXPECT_DOUBLE_EQ(grid.cell_mbr(7).x_max, 4.0);
  EXPECT_DOUBLE_EQ(grid.cell_mbr(7).y_max, 2.0);
}

TEST(SpatialStructureTest, FindCellFirstMatchOnSharedEdges) {
  SpatialStructure grid = SpatialStructure::Grid(Mbr(0, 0, 2, 2), 2, 2);
  // The shared edge x=1 belongs to BOTH cells 0 and 1; first match wins.
  EXPECT_EQ(grid.FindCell(Point(1.0, 0.5)), 0u);
  EXPECT_EQ(grid.FindCell(Point(1.5, 0.5)), 1u);
  EXPECT_EQ(grid.FindCell(Point(0.5, 1.5)), 2u);
  EXPECT_EQ(grid.FindCell(Point(3.0, 0.5)), SpatialStructure::kNoCell);
}

TEST(SpatialStructureTest, ContainingCellsListsAllOnBoundary) {
  SpatialStructure grid = SpatialStructure::Grid(Mbr(0, 0, 2, 2), 2, 2);
  std::vector<size_t> cells = grid.ContainingCells(Point(1.0, 1.0));
  EXPECT_EQ(cells, (std::vector<size_t>{0, 1, 2, 3}));  // corner of all four
  EXPECT_EQ(grid.ContainingCells(Point(0.5, 0.5)), (std::vector<size_t>{0}));
}

TEST(SpatialStructureTest, IntersectingCellsForLine) {
  SpatialStructure grid = SpatialStructure::Grid(Mbr(0, 0, 4, 4), 4, 4);
  // A diagonal crossing the lower-left quadrant.
  LineString diag({Point(0.5, 0.5), Point(1.5, 1.5)});
  std::vector<size_t> cells = grid.IntersectingCells(diag);
  // Crosses cells (0,0), (1,0)?, (0,1)?, (1,1): the exact rectangle predicate
  // counts edge touches, so at least the two diagonal cells appear.
  EXPECT_NE(std::find(cells.begin(), cells.end(), 0u), cells.end());
  EXPECT_NE(std::find(cells.begin(), cells.end(), 5u), cells.end());
}

// --- Closed-form grid lookup must equal the front-to-back scan. ---

namespace ci = conversion_internal;

void ExpectPointMatchesScan(const SpatialStructure& s, const Point& p) {
  EXPECT_EQ(s.FindCell(p), ci::NaiveFirstCell(s, p))
      << "point (" << p.x << ", " << p.y << ")";
  EXPECT_EQ(s.ContainingCells(p), ci::NaiveContainingCells(s, p))
      << "point (" << p.x << ", " << p.y << ")";
}

void ExpectLineMatchesScan(const SpatialStructure& s, const LineString& line) {
  std::vector<size_t> scanned = ci::NaiveCellsForLine(s, line);
  EXPECT_EQ(s.IntersectingCells(line), scanned)
      << "line of " << line.size() << " points from ("
      << (line.size() > 0 ? line.points()[0].x : 0.0) << ", "
      << (line.size() > 0 ? line.points()[0].y : 0.0) << ")";
}

/// Coordinates a grid lookup gets wrong first: every cell edge as the grid
/// computes it, the extent corners, and points just inside and outside.
std::vector<double> EdgeCoords(double lo, double hi, int n) {
  double step = (hi - lo) / n;
  std::vector<double> out;
  for (int i = 0; i <= n; ++i) {
    double edge = lo + i * step;
    out.push_back(edge);
    out.push_back(std::nextafter(edge, -std::numeric_limits<double>::max()));
    out.push_back(std::nextafter(edge, std::numeric_limits<double>::max()));
  }
  out.push_back(lo - (hi - lo));
  out.push_back(hi + (hi - lo));
  return out;
}

/// Runs points and polylines — random, on edges, outside, non-finite —
/// through all three lookups of `s` and the naive scans.
void ExpectGridMatchesScan(const Mbr& extent, int nx, int ny, uint64_t seed) {
  SpatialStructure s = SpatialStructure::Grid(extent, nx, ny);
  SCOPED_TRACE(testing::Message() << "grid " << nx << "x" << ny << " over ["
                                  << extent.x_min << ", " << extent.x_max
                                  << "] x [" << extent.y_min << ", "
                                  << extent.y_max << "]");
  std::vector<double> xs = EdgeCoords(extent.x_min, extent.x_max, nx);
  std::vector<double> ys = EdgeCoords(extent.y_min, extent.y_max, ny);
  const size_t finite_xs = xs.size();
  const size_t finite_ys = ys.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1e300, -1e300, kInf, -kInf, kNaN}) {
    xs.push_back(v);
    ys.push_back(v);
  }
  for (double x : xs) {
    for (double y : ys) ExpectPointMatchesScan(s, Point(x, y));
  }

  Rng rng(seed);
  double w = extent.x_max - extent.x_min;
  double h = extent.y_max - extent.y_min;
  auto random_point = [&]() {
    // Mostly inside, some outside, some snapped onto an edge coordinate.
    double x = rng.Uniform(extent.x_min - 0.2 * w, extent.x_max + 0.2 * w);
    double y = rng.Uniform(extent.y_min - 0.2 * h, extent.y_max + 0.2 * h);
    if (rng.Bernoulli(0.2)) x = xs[rng.UniformInt(0, finite_xs - 1)];
    if (rng.Bernoulli(0.2)) y = ys[rng.UniformInt(0, finite_ys - 1)];
    return Point(x, y);
  };
  for (int i = 0; i < 2000; ++i) ExpectPointMatchesScan(s, random_point());
  for (int i = 0; i < 2000; ++i) {
    std::vector<Point> pts;
    int len = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < len; ++k) {
      // Repeat the previous vertex now and then: a zero-length segment.
      if (k > 0 && rng.Bernoulli(0.15)) {
        pts.push_back(pts.back());
      } else {
        pts.push_back(random_point());
      }
    }
    ExpectLineMatchesScan(s, LineString(std::move(pts)));
  }

  // Segments lying along grid lines, single points, zero-length segments,
  // and lines with a non-finite or enormous vertex.
  for (size_t i = 0; i < finite_xs; i += 3) {
    Point on_edge(xs[i], ys[i % finite_ys]);
    ExpectLineMatchesScan(s, LineString({Point(xs[i], extent.y_min),
                                         Point(xs[i], extent.y_max)}));
    ExpectLineMatchesScan(s, LineString({on_edge}));
    ExpectLineMatchesScan(s, LineString({on_edge, on_edge}));
  }
  for (size_t j = 0; j < finite_ys; j += 3) {
    ExpectLineMatchesScan(s, LineString({Point(extent.x_min, ys[j]),
                                         Point(extent.x_max, ys[j])}));
  }
  Point inside = extent.Center();
  for (double v : {1e300, -1e300, kInf, -kInf, kNaN}) {
    ExpectLineMatchesScan(s, LineString({inside, Point(v, inside.y)}));
    ExpectLineMatchesScan(s, LineString({Point(inside.x, v), inside}));
    ExpectLineMatchesScan(s, LineString({Point(v, v)}));
  }
  ExpectLineMatchesScan(s, LineString({Point(-1e300, -1e300),
                                       Point(1e300, 1e300)}));
  ExpectLineMatchesScan(s, LineString());
}

TEST(SpatialStructureTest, GridLookupMatchesScanSquare) {
  ExpectGridMatchesScan(Mbr(0, 0, 4, 4), 4, 4, 1);
}

TEST(SpatialStructureTest, GridLookupMatchesScanNonSquare) {
  ExpectGridMatchesScan(Mbr(-74.05, 40.60, -73.75, 40.90), 17, 23, 2);
  ExpectGridMatchesScan(Mbr(-8.70, 41.10, -8.52, 41.22), 30, 7, 3);
  ExpectGridMatchesScan(Mbr(0, 0, 0.3, 0.7), 3, 7, 4);
}

TEST(SpatialStructureTest, GridLookupMatchesScanOneByN) {
  ExpectGridMatchesScan(Mbr(0, 0, 1, 10), 1, 9, 5);
  ExpectGridMatchesScan(Mbr(0, 0, 10, 1), 11, 1, 6);
  ExpectGridMatchesScan(Mbr(2, 3, 5, 7), 1, 1, 7);
}

TEST(SpatialStructureTest, GridLookupMatchesScanWhenCellsCollapse) {
  // Cell steps far below the extent's ulp: rounded edges coincide, so many
  // cells share one coordinate and an arithmetic guess alone is off by more
  // than one cell.
  ExpectGridMatchesScan(Mbr(1e16, 1e16, 1e16 + 4, 1e16 + 8), 40, 9, 8);
}

TEST(SpatialStructureTest, DegenerateGridFallsBackToScan) {
  // Zero width, zero height, and an empty extent.
  ExpectGridMatchesScan(Mbr(1, 0, 1, 5), 3, 4, 9);
  ExpectGridMatchesScan(Mbr(0, 2, 6, 2), 3, 4, 10);
  SpatialStructure empty = SpatialStructure::Grid(Mbr(), 2, 2);
  ExpectPointMatchesScan(empty, Point(0.5, 0.5));
  ExpectLineMatchesScan(empty, LineString({Point(0, 0), Point(1, 1)}));
  SpatialStructure none = SpatialStructure::Grid(Mbr(0, 0, 1, 1), 0, 0);
  EXPECT_EQ(none.FindCell(Point(0.5, 0.5)), SpatialStructure::kNoCell);
  EXPECT_TRUE(none.ContainingCells(Point(0.5, 0.5)).empty());
  EXPECT_TRUE(
      none.IntersectingCells(LineString({Point(0, 0), Point(1, 1)})).empty());
}

TEST(SpatialStructureTest, IrregularUsesPolygonPredicates) {
  std::vector<Polygon> cells = {Polygon::FromMbr(Mbr(0, 0, 1, 1)),
                                Polygon::FromMbr(Mbr(2, 2, 3, 3))};
  SpatialStructure irregular = SpatialStructure::Irregular(cells);
  EXPECT_FALSE(irregular.is_grid());
  EXPECT_EQ(irregular.FindCell(Point(0.5, 0.5)), 0u);
  EXPECT_EQ(irregular.FindCell(Point(2.5, 2.5)), 1u);
  EXPECT_EQ(irregular.FindCell(Point(1.5, 1.5)), SpatialStructure::kNoCell);
  LineString through({Point(-1, 0.5), Point(5, 0.5)});
  EXPECT_EQ(irregular.IntersectingCells(through), (std::vector<size_t>{0}));
}

TEST(RasterStructureTest, BinMajorFlatLayout) {
  RasterStructure raster =
      RasterStructure::Regular(Mbr(0, 0, 2, 2), 2, 2, Duration(0, 7200), 2);
  EXPECT_EQ(raster.num_cells(), 4u);
  EXPECT_EQ(raster.num_bins(), 2u);
  EXPECT_EQ(raster.size(), 8u);
  EXPECT_EQ(raster.FlatIndex(3, 1), 1u * 4u + 3u);
  EXPECT_EQ(raster.bin(5).start(), 3600);   // flat 5 -> bin 1
  EXPECT_DOUBLE_EQ(raster.cell(5).mbr().x_min, 1.0);  // flat 5 -> cell 1
}

}  // namespace
}  // namespace st4ml
