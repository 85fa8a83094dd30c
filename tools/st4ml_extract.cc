// st4ml_extract: reads an event CSV (id,x,y,time,attr) from stdin, converts
// it into an hourly time series, and emits one JSONL feature line per bin on
// stdout — the end of the datagen | ingest | select | extract chain.
//
//   st4ml_select ... | st4ml_extract --interval=3600
//       [--cache-budget=67108864] [--trace=trace.json]
//       [--metrics-json=metrics.json] > features.jsonl

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "conversion/singular_to_collective.h"
#include "conversion/parse.h"
#include "extraction/collective_extractors.h"
#include "pipeline/session.h"
#include "storage/json.h"
#include "storage/text_import.h"
#include "tool_flags.h"
#include "tool_main.h"

namespace {

int Run(int argc, char** argv) {
  st4ml::tools::Flags flags(argc, argv);
  int64_t interval_s = flags.GetInt("interval", 3600);
  st4ml::ToolOptions options = st4ml::tools::ToolOptionsFromFlags(flags);
  if (!st4ml::tools::CheckIntFlags(flags, "st4ml_extract")) return 2;

  std::vector<st4ml::EventRecord> records;
  st4ml::Status read = st4ml::ReadEventsCsv(
      std::cin, "stdin", [&](st4ml::EventRecord record) {
        records.push_back(std::move(record));
        return st4ml::Status::Ok();
      });
  if (!read.ok()) {
    std::fprintf(stderr, "st4ml_extract: %s\n", read.ToString().c_str());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "st4ml_extract: no input events\n");
    return 1;
  }

  st4ml::Session session(options);
  if (!st4ml::tools::CheckSessionConfig(session, "st4ml_extract")) return 2;
  auto data = st4ml::Dataset<st4ml::EventRecord>::Parallelize(
      session.context(), records, 4);

  int64_t t_min = records.front().time;
  int64_t t_max = t_min;
  for (const st4ml::EventRecord& r : records) {
    t_min = std::min(t_min, r.time);
    t_max = std::max(t_max, r.time);
  }
  auto structure = std::make_shared<st4ml::TemporalStructure>(
      st4ml::TemporalStructure::RegularByInterval(
          st4ml::Duration(t_min, t_max), interval_s));

  st4ml::Job job = session.StartJob("st4ml_extract");
  auto events = job.Run("parse", st4ml::ParseEvents, std::move(data));
  st4ml::TimeSeriesConverter<st4ml::STEvent> converter(structure);
  auto series = job.Run(
      "conversion",
      [&](const st4ml::Dataset<st4ml::STEvent>& parsed) {
        return converter.Convert(parsed);
      },
      events);
  st4ml::TimeSeries<int64_t> flow = job.Run(
      "extraction",
      [&](const decltype(series)& converted) {
        return st4ml::ExtractTsFlow(converted);
      },
      series);
  job.Finish();
  if (!job.ok()) {
    std::fprintf(stderr, "st4ml_extract: %s\n",
                 job.status().ToString().c_str());
    return 1;
  }

  for (size_t i = 0; i < flow.size(); ++i) {
    st4ml::JsonObject line;
    line.Add("bin", static_cast<int64_t>(i))
        .Add("start", flow.bin(i).start())
        .Add("end", flow.bin(i).end())
        .Add("count", flow.value(i));
    std::printf("%s\n", line.Str().c_str());
  }
  std::fprintf(stderr, "st4ml_extract: %zu bins over %zu events\n",
               flow.size(), records.size());
  if (!session.ExportArtifacts("st4ml_extract")) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return st4ml::tools::ToolMain("st4ml_extract",
                                [&] { return Run(argc, argv); });
}
