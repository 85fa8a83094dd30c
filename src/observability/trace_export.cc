#include "observability/trace_export.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <inttypes.h>
#include <vector>

#include "accel/kernels.h"
#include "storage/json.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

Status OpenForWrite(const std::string& path, std::ofstream* out) {
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  out->open(path, std::ios::trunc);
  if (!out->is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  return Status::Ok();
}

std::string SpanArgsJson(const SpanRecord& span) {
  JsonObject args;
  args.Add("span_id", span.id).Add("parent_id", span.parent);
  for (const auto& [key, value] : span.args) args.Add(key, value);
  return args.Str();
}

}  // namespace

Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  std::vector<SpanRecord> spans = tracer.Spans();
  int64_t now = tracer.NowMicros();
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(OpenForWrite(path, &out));
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    int64_t end = span.end_us < 0 ? now : span.end_us;
    JsonObject event;
    event.Add("name", span.name)
        .Add("cat", span.category)
        .Add("ph", "X")
        .Add("pid", 1)
        .Add("tid", static_cast<int64_t>(span.tid))
        .Add("ts", span.start_us)
        .Add("dur", std::max<int64_t>(end - span.start_us, 0))
        .AddRaw("args", SpanArgsJson(span));
    if (i > 0) out << ",";
    out << "\n" << event.Str();
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::Ok();
}

Status WriteMetricsJson(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(OpenForWrite(path, &out));
  JsonObject object;
  for (size_t i = 0; i < kNumCounters; ++i) {
    object.Add(CounterName(static_cast<Counter>(i)), snapshot.values[i]);
  }
  out << object.Str() << "\n";
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::Ok();
}

void PrintStageSummary(const Tracer& tracer, const MetricsSnapshot& snapshot,
                       std::FILE* out) {
  std::vector<SpanRecord> spans = tracer.Spans();
  int64_t now = tracer.NowMicros();
  std::fprintf(out, "%-16s %10s %12s\n", "stage", "wall_ms", "records");
  for (const SpanRecord& span : spans) {
    if (span.category != span_category::kStage) continue;
    int64_t end = span.end_us < 0 ? now : span.end_us;
    double wall_ms = static_cast<double>(end - span.start_us) / 1000.0;
    // The Pipeline facade annotates stage spans with records_out.
    uint64_t records = 0;
    bool have_records = false;
    for (const auto& [key, value] : span.args) {
      if (key == "records_out") {
        records = value;
        have_records = true;
      }
    }
    if (have_records) {
      std::fprintf(out, "%-16s %10.2f %12" PRIu64 "\n", span.name.c_str(),
                   wall_ms, records);
    } else {
      std::fprintf(out, "%-16s %10.2f %12s\n", span.name.c_str(), wall_ms,
                   "-");
    }
  }
  std::fprintf(out,
               "totals: shuffle %" PRIu64 " records / %" PRIu64
               " bytes, %" PRIu64 " broadcasts, stpq %" PRIu64
               " bytes read (%" PRIu64 " pruned / %" PRIu64
               " scanned parts)\n",
               snapshot[Counter::kShuffleRecords],
               snapshot[Counter::kShuffleBytes], snapshot[Counter::kBroadcasts],
               snapshot[Counter::kStpqBytesRead],
               snapshot[Counter::kPartitionsPruned],
               snapshot[Counter::kPartitionsScanned]);
  // Kernel dispatch line: which backend ran, and how much of the work hit
  // batch kernels vs per-record fallbacks. Registry-wide (process scope),
  // not per-snapshot — dispatch identity doesn't vary per job.
  const accel::BackendRegistry& accel = accel::BackendRegistry::Instance();
  std::fprintf(out,
               "backend: %s, %" PRIu64 " batches / %" PRIu64
               " records batched, %" PRIu64 " records on fallback paths\n",
               accel.active_name(), accel.batches(), accel.batch_records(),
               accel.fallback_records());
}

}  // namespace st4ml
