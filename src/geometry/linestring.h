#ifndef ST4ML_GEOMETRY_LINESTRING_H_
#define ST4ML_GEOMETRY_LINESTRING_H_

#include <utility>
#include <vector>

#include "geometry/mbr.h"
#include "geometry/point.h"

namespace st4ml {

/// An ordered polyline (a trajectory's spatial shape).
class LineString {
 public:
  LineString() = default;
  explicit LineString(std::vector<Point> points) : points_(std::move(points)) {}

  const std::vector<Point>& points() const { return points_; }
  std::vector<Point>* mutable_points() { return &points_; }
  size_t size() const { return points_.size(); }

  Mbr ComputeMbr() const {
    Mbr mbr;
    for (const Point& p : points_) mbr.Extend(p);
    return mbr;
  }

  /// Total planar length in coordinate units.
  double Length() const {
    double total = 0.0;
    for (size_t i = 1; i < points_.size(); ++i) {
      total += EuclideanDistance(points_[i - 1], points_[i]);
    }
    return total;
  }

  /// Total great-circle length in meters (points are lon/lat).
  double LengthMeters() const {
    double total = 0.0;
    for (size_t i = 1; i < points_.size(); ++i) {
      total += HaversineMeters(points_[i - 1], points_[i]);
    }
    return total;
  }

  /// Exact intersection with a rectangle: some vertex inside, or some segment
  /// crossing an edge. This is the shared refinement predicate every system in
  /// the repo uses for trajectory-to-cell assignment, so results agree.
  bool IntersectsMbr(const Mbr& mbr) const;

 private:
  std::vector<Point> points_;
};

/// Exact segment-vs-rectangle intersection: an endpoint inside, or the
/// segment crossing an edge. The per-segment test behind
/// LineString::IntersectsMbr; true only if the segment's bounding box meets
/// `mbr`.
bool SegmentIntersectsMbr(const Point& a, const Point& b, const Mbr& mbr);

/// Squared distance from `p` to segment [a, b], and the closest point.
double PointToSegmentDistanceSq(const Point& p, const Point& a, const Point& b,
                                Point* closest);

}  // namespace st4ml

#endif  // ST4ML_GEOMETRY_LINESTRING_H_
