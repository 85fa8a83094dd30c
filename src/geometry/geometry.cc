#include "geometry/geometry.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace st4ml {

namespace {

double Cross(const Point& o, const Point& a, const Point& b) {
  return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

bool OnSegment(const Point& p, const Point& q, const Point& r) {
  return std::min(p.x, r.x) <= q.x && q.x <= std::max(p.x, r.x) &&
         std::min(p.y, r.y) <= q.y && q.y <= std::max(p.y, r.y);
}

int Orientation(const Point& p, const Point& q, const Point& r) {
  double v = Cross(p, q, r);
  if (v > 0) return 1;
  if (v < 0) return -1;
  return 0;
}

}  // namespace

bool SegmentsIntersect(const Point& a1, const Point& a2, const Point& b1,
                       const Point& b2) {
  int o1 = Orientation(a1, a2, b1);
  int o2 = Orientation(a1, a2, b2);
  int o3 = Orientation(b1, b2, a1);
  int o4 = Orientation(b1, b2, a2);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && OnSegment(a1, b1, a2)) return true;
  if (o2 == 0 && OnSegment(a1, b2, a2)) return true;
  if (o3 == 0 && OnSegment(b1, a1, b2)) return true;
  if (o4 == 0 && OnSegment(b1, a2, b2)) return true;
  return false;
}

bool SegmentIntersectsMbr(const Point& a, const Point& b, const Mbr& mbr) {
  if (mbr.ContainsPoint(a) || mbr.ContainsPoint(b)) return true;
  // Segment bounding-box reject.
  if (std::max(a.x, b.x) < mbr.x_min || std::min(a.x, b.x) > mbr.x_max ||
      std::max(a.y, b.y) < mbr.y_min || std::min(a.y, b.y) > mbr.y_max) {
    return false;
  }
  Point c1(mbr.x_min, mbr.y_min), c2(mbr.x_max, mbr.y_min);
  Point c3(mbr.x_max, mbr.y_max), c4(mbr.x_min, mbr.y_max);
  return SegmentsIntersect(a, b, c1, c2) || SegmentsIntersect(a, b, c2, c3) ||
         SegmentsIntersect(a, b, c3, c4) || SegmentsIntersect(a, b, c4, c1);
}

double PointToSegmentDistanceSq(const Point& p, const Point& a, const Point& b,
                                Point* closest) {
  double abx = b.x - a.x;
  double aby = b.y - a.y;
  double len_sq = abx * abx + aby * aby;
  double t = 0.0;
  if (len_sq > 0) {
    t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq;
    t = std::max(0.0, std::min(1.0, t));
  }
  Point proj(a.x + t * abx, a.y + t * aby);
  if (closest != nullptr) *closest = proj;
  double dx = p.x - proj.x;
  double dy = p.y - proj.y;
  return dx * dx + dy * dy;
}

bool LineString::IntersectsMbr(const Mbr& mbr) const {
  if (points_.empty()) return false;
  if (points_.size() == 1) return mbr.ContainsPoint(points_[0]);
  if (!ComputeMbr().Intersects(mbr)) return false;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (SegmentIntersectsMbr(points_[i - 1], points_[i], mbr)) return true;
  }
  return false;
}

bool Polygon::ContainsPoint(const Point& p) const {
  if (ring_.size() < 3 || !mbr_.ContainsPoint(p)) return false;
  bool inside = false;
  size_t n = ring_.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring_[i];
    const Point& b = ring_[j];
    // Boundary counts as inside (consistent with Mbr::ContainsPoint).
    if (Orientation(a, b, p) == 0 && OnSegment(a, p, b)) return true;
    if ((a.y > p.y) != (b.y > p.y)) {
      double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

bool Polygon::IntersectsLineString(const LineString& line) const {
  const auto& pts = line.points();
  if (pts.empty() || ring_.size() < 3) return false;
  if (!mbr_.Intersects(line.ComputeMbr())) return false;
  for (const Point& p : pts) {
    if (ContainsPoint(p)) return true;
  }
  size_t n = ring_.size();
  for (size_t i = 1; i < pts.size(); ++i) {
    for (size_t j = 0, k = n - 1; j < n; k = j++) {
      if (SegmentsIntersect(pts[i - 1], pts[i], ring_[j], ring_[k])) {
        return true;
      }
    }
  }
  return false;
}

bool Polygon::IntersectsMbr(const Mbr& mbr) const {
  if (ring_.size() < 3 || !mbr_.Intersects(mbr)) return false;
  for (const Point& p : ring_) {
    if (mbr.ContainsPoint(p)) return true;
  }
  // A rectangle corner inside the polygon, or crossing edges.
  Point c1(mbr.x_min, mbr.y_min), c2(mbr.x_max, mbr.y_min);
  Point c3(mbr.x_max, mbr.y_max), c4(mbr.x_min, mbr.y_max);
  if (ContainsPoint(c1) || ContainsPoint(c2) || ContainsPoint(c3) ||
      ContainsPoint(c4)) {
    return true;
  }
  size_t n = ring_.size();
  const Point corners[5] = {c1, c2, c3, c4, c1};
  for (size_t j = 0, k = n - 1; j < n; k = j++) {
    for (int e = 0; e < 4; ++e) {
      if (SegmentsIntersect(ring_[j], ring_[k], corners[e], corners[e + 1])) {
        return true;
      }
    }
  }
  return false;
}

Mbr Geometry::ComputeMbr() const {
  if (IsPoint()) return Mbr(AsPoint());
  if (IsLineString()) return AsLineString().ComputeMbr();
  return AsPolygon().mbr();
}

bool Geometry::IntersectsMbr(const Mbr& mbr) const {
  if (IsPoint()) return mbr.ContainsPoint(AsPoint());
  if (IsLineString()) return AsLineString().IntersectsMbr(mbr);
  return AsPolygon().IntersectsMbr(mbr);
}

bool Geometry::IntersectsPolygon(const Polygon& polygon) const {
  if (IsPoint()) return polygon.ContainsPoint(AsPoint());
  if (IsLineString()) return polygon.IntersectsLineString(AsLineString());
  // Polygon-polygon: ring of one treated as a linestring against the other,
  // plus mutual containment of a vertex.
  const Polygon& other = AsPolygon();
  if (other.ring().empty() || polygon.ring().empty()) return false;
  LineString ring(other.ring());
  if (polygon.IntersectsLineString(ring)) return true;
  return other.ContainsPoint(polygon.ring()[0]);
}

namespace {

void AppendCoords(std::string* out, const std::vector<Point>& pts,
                  bool close_ring) {
  char buf[64];
  out->push_back('(');
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i > 0) out->append(", ");
    std::snprintf(buf, sizeof(buf), "%.9g %.9g", pts[i].x, pts[i].y);
    out->append(buf);
  }
  if (close_ring && !pts.empty()) {
    out->append(", ");
    std::snprintf(buf, sizeof(buf), "%.9g %.9g", pts[0].x, pts[0].y);
    out->append(buf);
  }
  out->push_back(')');
}

/// Parses "x y, x y, ..." until ')'.
Status ParseCoords(const std::string& wkt, size_t* pos,
                   std::vector<Point>* out) {
  while (*pos < wkt.size() && wkt[*pos] != ')') {
    char* end = nullptr;
    double x = std::strtod(wkt.c_str() + *pos, &end);
    if (end == wkt.c_str() + *pos) {
      return Status::Corruption("bad WKT coordinate: " + wkt);
    }
    *pos = end - wkt.c_str();
    double y = std::strtod(wkt.c_str() + *pos, &end);
    if (end == wkt.c_str() + *pos) {
      return Status::Corruption("bad WKT coordinate: " + wkt);
    }
    *pos = end - wkt.c_str();
    out->push_back(Point(x, y));
    while (*pos < wkt.size() && (wkt[*pos] == ',' || wkt[*pos] == ' ')) ++*pos;
  }
  if (*pos >= wkt.size()) return Status::Corruption("unterminated WKT: " + wkt);
  ++*pos;  // consume ')'
  return Status::Ok();
}

}  // namespace

std::string ToWkt(const Geometry& geometry) {
  std::string out;
  if (geometry.IsPoint()) {
    out = "POINT ";
    AppendCoords(&out, {geometry.AsPoint()}, false);
  } else if (geometry.IsLineString()) {
    out = "LINESTRING ";
    AppendCoords(&out, geometry.AsLineString().points(), false);
  } else {
    out = "POLYGON (";
    AppendCoords(&out, geometry.AsPolygon().ring(), true);
    out.push_back(')');
  }
  return out;
}

Status FromWkt(const std::string& wkt, Geometry* geometry) {
  size_t open = wkt.find('(');
  if (open == std::string::npos) {
    return Status::Corruption("no coordinates in WKT: " + wkt);
  }
  std::string tag = wkt.substr(0, open);
  size_t pos = open + 1;
  std::vector<Point> pts;
  if (tag.find("POINT") != std::string::npos) {
    ST4ML_RETURN_IF_ERROR(ParseCoords(wkt, &pos, &pts));
    if (pts.size() != 1) return Status::Corruption("POINT arity: " + wkt);
    *geometry = Geometry(pts[0]);
  } else if (tag.find("LINESTRING") != std::string::npos) {
    ST4ML_RETURN_IF_ERROR(ParseCoords(wkt, &pos, &pts));
    *geometry = Geometry(LineString(std::move(pts)));
  } else if (tag.find("POLYGON") != std::string::npos) {
    while (pos < wkt.size() && (wkt[pos] == ' ' || wkt[pos] == '(')) ++pos;
    pos = wkt.find('(', open + 1);
    if (pos == std::string::npos) {
      return Status::Corruption("POLYGON ring missing: " + wkt);
    }
    ++pos;
    ST4ML_RETURN_IF_ERROR(ParseCoords(wkt, &pos, &pts));
    if (pts.size() >= 2 && pts.front() == pts.back()) pts.pop_back();
    *geometry = Geometry(Polygon(std::move(pts)));
  } else {
    return Status::InvalidArgument("unknown WKT tag: " + tag);
  }
  return Status::Ok();
}

}  // namespace st4ml
