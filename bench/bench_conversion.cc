// Figure 6: processing time of the six singular-to-collective instance
// conversions — ST4ML's optimized allocation (a closed-form bin or
// grid-cell window checked exactly / a broadcast R-tree over irregular
// cells) versus the default Spark solution (a Cartesian product of
// instances and cells), across structure granularities.
//
// Expected shape (paper): speedups grow with the structure's dimensionality
// (raster > spatial map > time series) and granularity, and are larger for
// point events than for trajectories; up to 23x/45x/105x on events and ~6x
// on trajectories.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "partition/hash_partitioner.h"
#include "selection/selector.h"

namespace st4ml {
namespace bench {
namespace {

template <typename RecordT>
Dataset<RecordT> LoadAll(const BenchEnv& env, const ScaledDirs& dirs,
                         const Mbr& extent, const Duration& range) {
  SelectorOptions options;
  options.partitioner = std::make_shared<HashPartitioner>(16);
  Selector<RecordT> selector(env.ctx, SelectQuery::FromBox(STBox(extent, range)), options);
  auto selected = selector.Select(dirs.plain_dir);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return *selected;
}

struct Timing {
  double naive;
  double optimized;
};

template <typename SingularT, typename ConverterT>
Timing TimeBoth(const Dataset<SingularT>& data, ConverterT make_converter) {
  Timing t;
  t.naive = TimeIt([&] {
    auto converter = make_converter(ConversionStrategy::kNaive);
    converter.Convert(data).Count();
  });
  t.optimized = TimeIt([&] {
    auto converter = make_converter(ConversionStrategy::kAuto);
    converter.Convert(data).Count();
  });
  return t;
}

template <typename SingularT>
void RunDataset(const char* name, const Dataset<SingularT>& data,
                const Mbr& extent, const Duration& range) {
  std::printf("\n--- %s (%zu instances) ---\n", name, data.Count());
  TablePrinter table({"conversion", "granularity", "cells", "naive",
                      "optimized", "speedup"});

  for (int bins : {64, 256, 1024}) {
    auto structure = std::make_shared<const TemporalStructure>(
        TemporalStructure::Regular(range, bins));
    Timing t = TimeBoth(data, [&](ConversionStrategy s) {
      return TimeSeriesConverter<SingularT>(structure, s);
    });
    table.AddRow({"-> time series", std::to_string(bins) + " bins",
                  std::to_string(bins), FmtSeconds(t.naive),
                  FmtSeconds(t.optimized), FmtRatio(t.naive / t.optimized)});
  }
  for (int grid : {16, 32, 64, 128}) {
    auto structure = std::make_shared<const SpatialStructure>(
        SpatialStructure::Grid(extent, grid, grid));
    Timing t = TimeBoth(data, [&](ConversionStrategy s) {
      return SpatialMapConverter<SingularT>(structure, s);
    });
    table.AddRow({"-> spatial map",
                  std::to_string(grid) + "x" + std::to_string(grid),
                  std::to_string(grid * grid), FmtSeconds(t.naive),
                  FmtSeconds(t.optimized), FmtRatio(t.naive / t.optimized)});
  }
  for (int size : {8, 16, 24}) {
    auto structure = std::make_shared<const RasterStructure>(
        RasterStructure::Regular(extent, size, size, range, size));
    Timing t = TimeBoth(data, [&](ConversionStrategy s) {
      return RasterConverter<SingularT>(structure, s);
    });
    table.AddRow({"-> raster",
                  std::to_string(size) + "^3",
                  std::to_string(size * size * size), FmtSeconds(t.naive),
                  FmtSeconds(t.optimized), FmtRatio(t.naive / t.optimized)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace st4ml

int main() {
  using namespace st4ml;
  using namespace st4ml::bench;
  const BenchEnv& env = GetBenchEnv();
  std::printf("== Fig. 6: instance-conversion optimization ==\n");
  std::printf("naive = Cartesian instance x cell scan; optimized = closed-\n");
  std::printf("form bin / grid-cell window + exact check (regular) /\n");
  std::printf("broadcast R-tree (irregular)\n");

  auto events = ParseEvents(LoadAll<EventRecord>(env, env.nyc[1],
                                                 env.nyc_extent, env.nyc_range));
  RunDataset("NYC events -> collectives", events, env.nyc_extent,
             env.nyc_range);

  auto trajs = ParseTrajs(LoadAll<TrajRecord>(env, env.porto[1],
                                              env.porto_extent, env.porto_range));
  RunDataset("Porto trajectories -> collectives", trajs, env.porto_extent,
             env.porto_range);
  return 0;
}
