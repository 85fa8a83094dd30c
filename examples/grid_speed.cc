// Grid speed (paper app e): mean trajectory speed per cell of a spatial
// grid, computed with the broadcast converter + collective extractor.

#include <cstdio>
#include <memory>

#include "st4ml.h"

int main() {
  using namespace st4ml;
  auto ctx = ExecutionContext::Create();

  PortoTrajOptions gen;
  gen.count = 2000;
  auto records = GeneratePortoTrajectories(gen);
  auto trajs =
      ParseTrajs(Dataset<TrajRecord>::Parallelize(ctx, records, 4));

  auto grid = std::make_shared<SpatialStructure>(
      SpatialStructure::Grid(gen.extent, 8, 8));
  SpatialMapConverter<STTrajectory> converter(grid);
  Pipeline pipeline(ctx, "grid_speed");
  auto cells = pipeline.Run(
      "conversion",
      [&](const Dataset<STTrajectory>& parsed) {
        return converter.Convert(parsed);
      },
      trajs);
  SpatialMap<double> speed = pipeline.Run(
      "extraction",
      [](const Dataset<SpatialMap<std::vector<STTrajectory>>>& converted) {
        return ExtractSmSpeed(converted, SpeedUnit::kKilometersPerHour);
      },
      cells);
  pipeline.Finish();

  for (size_t row = 0; row < 8; ++row) {
    for (size_t col = 0; col < 8; ++col) {
      std::printf("%6.1f", speed.value(row * 8 + col));
    }
    std::printf("\n");
  }
  const uint64_t broadcasts = ctx->MetricsSnapshot()[Counter::kBroadcasts];
  std::printf("cells: %zu, broadcasts: %llu\n", speed.size(),
              static_cast<unsigned long long>(broadcasts));
  return 0;
}
