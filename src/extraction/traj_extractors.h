#ifndef ST4ML_EXTRACTION_TRAJ_EXTRACTORS_H_
#define ST4ML_EXTRACTION_TRAJ_EXTRACTORS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "engine/dataset.h"
#include "extraction/extractor.h"
#include "geometry/point.h"
#include "instances/instances.h"

namespace st4ml {

/// Stay-point detection on one point sequence. The algorithm anchors at a
/// point, extends the window while every point stays within `dist_m` meters
/// of the anchor, and reports a stay when the window holds at least two
/// points spanning `min_duration_s` seconds. This is deliberately the exact
/// loop the reference implementations use, so results compare one to one.
inline std::vector<StayPoint> StayPointsOf(const std::vector<STEntry>& entries,
                                           double dist_m,
                                           int64_t min_duration_s) {
  std::vector<StayPoint> stays;
  size_t n = entries.size();
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n &&
           HaversineMeters(entries[i].point, entries[j].point) <= dist_m) {
      ++j;
    }
    if (j - i >= 2 && entries[j - 1].time - entries[i].time >= min_duration_s) {
      StayPoint stay;
      double sx = 0.0;
      double sy = 0.0;
      for (size_t k = i; k < j; ++k) {
        sx += entries[k].point.x;
        sy += entries[k].point.y;
      }
      stay.center = Point(sx / static_cast<double>(j - i),
                          sy / static_cast<double>(j - i));
      stay.duration = Duration(entries[i].time, entries[j - 1].time);
      stay.num_points = static_cast<int64_t>(j - i);
      stays.push_back(stay);
      i = j;
    } else {
      ++i;
    }
  }
  return stays;
}

/// Per-trajectory stay points, keyed by trajectory id.
inline Dataset<std::pair<int64_t, std::vector<StayPoint>>> ExtractStayPoints(
    const Dataset<STTrajectory>& trajs, double dist_m, int64_t min_duration_s) {
  return trajs.Map([dist_m, min_duration_s](const STTrajectory& t) {
    return std::make_pair(t.data, StayPointsOf(t.entries, dist_m,
                                               min_duration_s));
  });
}

/// Per-trajectory average speed, keyed by trajectory id.
inline Dataset<std::pair<int64_t, double>> ExtractTrajSpeeds(
    const Dataset<STTrajectory>& trajs,
    SpeedUnit unit = SpeedUnit::kMetersPerSecond) {
  double factor = SpeedFactor(unit);
  return trajs.Map([factor](const STTrajectory& t) {
    return std::make_pair(t.data, t.AverageSpeedMps() * factor);
  });
}

/// Whole-dataset speed statistics: min / max / sum / count over the
/// per-trajectory average speeds. Each partition folds its speeds in scan
/// order; the per-partition partials merge on the calling thread in
/// partition order, so the result is identical at every worker count.
inline SpeedStats ExtractTrajSpeedStats(
    const Dataset<STTrajectory>& trajs,
    SpeedUnit unit = SpeedUnit::kMetersPerSecond) {
  double factor = SpeedFactor(unit);
  Dataset<SpeedStats> partial =
      trajs.MapPartitions([factor](const std::vector<STTrajectory>& part) {
        SpeedStats stats;
        for (const STTrajectory& t : part) {
          double speed = t.AverageSpeedMps() * factor;
          stats.min = stats.min < speed ? stats.min : speed;
          stats.max = stats.max > speed ? stats.max : speed;
          stats.sum += speed;
          ++stats.count;
        }
        return std::vector<SpeedStats>{stats};
      });
  SpeedStats merged;
  for (size_t p = 0; p < partial.num_partitions(); ++p) {
    for (const SpeedStats& s : partial.partition(p)) {
      merged.min = merged.min < s.min ? merged.min : s.min;
      merged.max = merged.max > s.max ? merged.max : s.max;
      merged.sum += s.sum;
      merged.count += s.count;
    }
  }
  return merged;
}

/// Pairs of trajectories that pass within `dist_m` meters of each other
/// within `dt_s` seconds, found per engine partition (the trajectory twin of
/// ExtractEventCompanions). A coarse STBox proximity test prunes pairs, then
/// entries are matched exactly.
template <typename IdFn>
Dataset<std::pair<int64_t, int64_t>> ExtractTrajCompanions(
    const Dataset<STTrajectory>& trajs, double dist_m, int64_t dt_s,
    IdFn id_of) {
  return trajs.MapPartitions([dist_m, dt_s,
                              id_of](const std::vector<STTrajectory>& part) {
    // Rough degrees-per-meter bound (equator-scale) for the box prescreen;
    // only used to PRUNE, never to accept.
    double deg = dist_m / 111000.0;
    std::vector<STBox> boxes;
    boxes.reserve(part.size());
    for (const STTrajectory& t : part) boxes.push_back(t.ComputeSTBox());
    std::vector<std::pair<int64_t, int64_t>> out;
    for (size_t i = 0; i < part.size(); ++i) {
      for (size_t j = i + 1; j < part.size(); ++j) {
        int64_t ia = id_of(part[i]);
        int64_t ib = id_of(part[j]);
        if (ia == ib) continue;
        STBox widened(boxes[i].mbr.Buffered(deg),
                      Duration(boxes[i].time.start() - dt_s,
                               boxes[i].time.end() + dt_s));
        if (!widened.Intersects(boxes[j])) continue;
        bool companion = false;
        for (const STEntry& a : part[i].entries) {
          for (const STEntry& b : part[j].entries) {
            if (std::llabs(a.time - b.time) <= dt_s &&
                HaversineMeters(a.point, b.point) <= dist_m) {
              companion = true;
              break;
            }
          }
          if (companion) break;
        }
        if (companion) {
          out.emplace_back(std::min(ia, ib), std::max(ia, ib));
        }
      }
    }
    return out;
  });
}

}  // namespace st4ml

#endif  // ST4ML_EXTRACTION_TRAJ_EXTRACTORS_H_
