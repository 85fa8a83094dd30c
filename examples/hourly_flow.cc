// Hourly flow over a selected window (paper app d): select NYC-like events
// through the on-disk index, convert to an hourly time series, extract
// per-bin counts.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "st4ml.h"

int main() {
  using namespace st4ml;
  auto ctx = ExecutionContext::Create();

  // Stage a small synthetic dataset into a fresh on-disk index.
  NycEventOptions gen;
  gen.count = 20000;
  auto records = GenerateNycEvents(gen);
  std::string dir = "example_hourly_flow_data";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto data = Dataset<EventRecord>::Parallelize(ctx, records, 4);
  TSTRPartitioner partitioner(4, 4);
  Status built = BuildOnDiskIndex(data, &partitioner, dir, dir + "/index.meta");
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.ToString().c_str());
    return 1;
  }

  // The three paper stages, each under a Job stage span — with a tracer
  // attached (none here) the trace nests job → stage → operation → task
  // automatically.
  STBox query(gen.extent,
              Duration(gen.range.start(), gen.range.start() + 86400));
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(query));
  Session session(ctx);
  Job job = session.StartJob("hourly_flow");

  // Selection: one city-scale day.
  auto selected = job.Run(
      "selection", [&] { return selector.Select(dir, dir + "/index.meta"); });
  if (!selected.ok()) {
    std::fprintf(stderr, "%s\n", selected.status().ToString().c_str());
    return 1;
  }

  // Conversion + extraction: hour bins, event counts.
  auto structure = std::make_shared<TemporalStructure>(
      TemporalStructure::RegularByInterval(query.time, 3600));
  TimeSeriesConverter<STEvent> converter(structure);
  auto series = job.Run(
      "conversion",
      [&](const Dataset<STEvent>& events) { return converter.Convert(events); },
      ParseEvents(*selected));
  TimeSeries<int64_t> flow = job.Run(
      "extraction",
      [](const Dataset<TimeSeries<Bucket<STEvent>>>& binned) {
        return ExtractTsFlow(binned);
      },
      series);
  job.Finish();

  for (size_t i = 0; i < flow.size(); ++i) {
    std::printf("hour %02zu: %lld events\n", i,
                static_cast<long long>(flow.value(i)));
  }
  std::printf("pruning: loaded %llu bytes, kept %llu\n",
              static_cast<unsigned long long>(selector.stats().bytes_loaded),
              static_cast<unsigned long long>(selector.stats().bytes_selected));
  return 0;
}
