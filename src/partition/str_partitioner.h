#ifndef ST4ML_PARTITION_STR_PARTITIONER_H_
#define ST4ML_PARTITION_STR_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "geometry/mbr.h"
#include "partition/partitioner.h"

namespace st4ml {

namespace partition_internal {

/// A 2-d Sort-Tile-Recursive tiling: gx equal-count x slabs, each cut into
/// gy equal-count y tiles. Outer boundaries extend to infinity so the tiling
/// covers all of space. Reused by every STR-family partitioner.
struct StrTiling {
  int gx = 1;
  int gy = 1;
  std::vector<double> x_splits;               // gx - 1 ascending cuts
  std::vector<std::vector<double>> y_splits;  // per slab, gy - 1 ascending

  int num_tiles() const { return gx * gy; }

  /// Tile of a center point (the primary assignment).
  int TileOf(double x, double y) const;

  /// Appends `base + tile` for every tile whose (closed) bounds intersect
  /// `mbr`. Always a superset of the center's tile.
  void IntersectingTiles(const Mbr& mbr, int base, std::vector<int>* out) const;
};

/// An envelope's spatial center, the key an STR tiling is built from.
struct Center {
  double x;
  double y;
};

/// Builds the tiling from envelope centers by equal-count quantiles: slab
/// membership by rank under (x, y) order, tile cuts by y rank inside each
/// slab — the cuts and memberships a full sort would give, found by rank
/// selection. Reorders `centers`.
StrTiling BuildStrTiling(std::vector<Center>* centers, int gx, int gy);

}  // namespace partition_internal

/// Pure-spatial STR partitioner (the paper's STR baseline): one global 2-d
/// tiling of roughly `num_partitions` tiles, time ignored.
class STRPartitioner : public STPartitioner {
 public:
  explicit STRPartitioner(int num_partitions);

  void Train(const std::vector<STBox>& boxes) override;
  int num_partitions() const override { return tiling_.num_tiles(); }
  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override;

  /// The trained layout.
  const partition_internal::StrTiling& tiling() const { return tiling_; }

 private:
  partition_internal::StrTiling tiling_;
};

/// The paper's T-STR partitioner: equal-count TEMPORAL slices first, then an
/// independent 2-d STR tiling inside each slice. Time gets priority because
/// ML feature queries are long in time and narrow in space; slicing time
/// first keeps each partition's time span tight, which is what makes the
/// on-disk metadata pruning in the selection stage effective.
class TSTRPartitioner : public STPartitioner {
 public:
  /// `temporal_slices` time slices, roughly `spatial_tiles` tiles per slice.
  TSTRPartitioner(int temporal_slices, int spatial_tiles);

  void Train(const std::vector<STBox>& boxes) override;
  int num_partitions() const override {
    return static_cast<int>(tilings_.size()) * tiles_per_slice_;
  }
  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override;

  /// The trained layout: time cuts, then one spatial tiling per slice.
  const std::vector<int64_t>& t_splits() const { return t_splits_; }
  const std::vector<partition_internal::StrTiling>& tilings() const {
    return tilings_;
  }

 private:
  int temporal_slices_;
  int gsx_;
  int gsy_;
  int tiles_per_slice_;
  std::vector<int64_t> t_splits_;  // temporal_slices - 1 ascending cuts
  std::vector<partition_internal::StrTiling> tilings_;  // one per slice
};

}  // namespace st4ml

#endif  // ST4ML_PARTITION_STR_PARTITIONER_H_
