#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "accel/kernels.h"
#include "common/rng.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "engine/execution_context.h"
#include "extraction/collective_extractors.h"
#include "index/stix.h"
#include "ingest/ingestor.h"
#include "observability/trace_export.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "pipeline/session.h"
#include "selection/selector.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/stpq.h"

namespace st4ml {
namespace perfbench {

namespace fs = std::filesystem;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result object carries exactly these. They must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_ops_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"selection.select_ms_p50", "ms"},
    {"partition.st_partition_ms_p50", "ms"},
    {"conversion.parse_ms_p50", "ms"},
    {"conversion.convert_ms_p50", "ms"},
    {"extraction.extract_ms_p50", "ms"},
    {"storage.decode_ns_per_record", "ns"},
    {"index.query_us_p50", "us"},
    {"accel.filter_ns_per_record", "ns"},
    {"server.handle_ms_p50", "ms"},
    {"server.handle_ms_p99", "ms"},
    {"server.wire_ms_p50", "ms"},
    {"ingest.append_batch_ms_p50", "ms"},
    {"ingest.append_batch_ms_p99", "ms"},
    {"storage.bytes_read_per_op", "B"},
    {"index.pages_read_per_op", "count"},
    {"selection.pruned_ratio", "ratio"},
    {"selection.useful_bytes_ratio", "ratio"},
    {"selection.wal_segments_per_op", "count"},
    {"engine.shuffle_bytes_per_op", "B"},
    {"planner.linear_scan_per_op", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.reload_bytes_per_op", "B"},
    {"cache.evictions_per_op", "count"},
    {"trace.overhead_ratio", "ratio"},
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Up to `max` of `boxes`, spread evenly, so probe cost stays bounded.
std::vector<STBox> Spread(const std::vector<STBox>& boxes, size_t max) {
  if (boxes.size() <= max) return boxes;
  std::vector<STBox> out;
  for (size_t i = 0; i < max; ++i) out.push_back(boxes[i * boxes.size() / max]);
  return out;
}

}  // namespace

uint64_t StreamSeed(uint64_t run_seed, uint64_t stream) {
  // splitmix64 of (seed, stream): distinct seeds give unrelated streams.
  uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<STBox> StratifiedBoxes(const Mbr& extent, const Duration& range,
                                   double w, double h, int64_t span, int grid,
                                   uint64_t seed) {
  Rng rng(seed);
  const size_t n = static_cast<size_t>(grid) * static_cast<size_t>(grid);
  span = std::min(span, range.Seconds());
  const double free_x = extent.Width() - w;
  const double free_y = extent.Height() - h;
  const double free_t = static_cast<double>(range.Seconds() - span);
  std::vector<size_t> time_slot(n);
  std::vector<size_t> order(n);
  for (size_t k = 0; k < n; ++k) time_slot[k] = order[k] = k;
  for (size_t k = n; k > 1; --k) {
    std::swap(time_slot[k - 1], time_slot[rng.UniformInt(0, k - 1)]);
  }
  for (size_t k = n; k > 1; --k) {
    std::swap(order[k - 1], order[rng.UniformInt(0, k - 1)]);
  }
  std::vector<STBox> boxes(n);
  for (size_t k = 0; k < n; ++k) {
    const double cx = static_cast<double>(k % grid) + rng.Uniform(0, 1);
    const double cy = static_cast<double>(k / grid) + rng.Uniform(0, 1);
    const double ct = static_cast<double>(time_slot[k]) + rng.Uniform(0, 1);
    const double x = extent.x_min + free_x * cx / grid;
    const double y = extent.y_min + free_y * cy / grid;
    const int64_t t = range.start() + static_cast<int64_t>(
                                          free_t * ct / static_cast<double>(n));
    boxes[order[k]] = STBox(Mbr(x, y, x + w, y + h),
                            Duration(t, t + std::max<int64_t>(span, 1) - 1));
  }
  return boxes;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

MetricsSnapshot Delta(const MetricsSnapshot& after,
                      const MetricsSnapshot& before) {
  MetricsSnapshot d;
  for (size_t i = 0; i < kNumCounters; ++i) {
    d.values[i] = after.values[i] - before.values[i];
  }
  return d;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::Metric(const std::string& name, double value, const char* unit,
                    size_t samples) {
  metrics_[name] = Row{value, unit, samples};
}

void Report::WrongAnswer(const std::string& what) {
  ++wrong_;
  if (wrong_ <= 20) std::cerr << "st4ml_bench: WRONG ANSWER: " << what << "\n";
}

void Report::Config(const std::string& key, double value) {
  config_rows_.emplace_back(key, value);
}

void Report::CounterMetrics(const MetricsSnapshot& d, uint64_t ops) {
  auto per_op = [&](Counter c) { return Ratio(d[c], ops); };
  const uint64_t pruned = d[Counter::kPartitionsPruned];
  const uint64_t scanned = d[Counter::kPartitionsScanned];
  Metric("storage.bytes_read_per_op", per_op(Counter::kStpqBytesRead), "B",
         ops);
  Metric("index.pages_read_per_op", per_op(Counter::kIndexPagesRead), "count",
         ops);
  Metric("selection.pruned_ratio", Ratio(pruned, pruned + scanned), "ratio",
         pruned + scanned);
  Metric("selection.useful_bytes_ratio",
         Ratio(d[Counter::kSelectionBytesSelected], d[Counter::kStpqBytesRead]),
         "ratio", ops);
  Metric("selection.wal_segments_per_op",
         per_op(Counter::kWalSegmentsScanned), "count", ops);
  Metric("engine.shuffle_bytes_per_op", per_op(Counter::kShuffleBytes), "B",
         ops);
  Metric("planner.cached_index_per_op", per_op(Counter::kPlannerCachedIndex),
         "count", ops);
  Metric("planner.mmap_index_per_op", per_op(Counter::kPlannerMmapIndex),
         "count", ops);
  Metric("planner.linear_scan_per_op", per_op(Counter::kPlannerLinearScan),
         "count", ops);
  const uint64_t hits = d[Counter::kCacheHits];
  const uint64_t lookups = hits + d[Counter::kCacheMisses];
  Metric("cache.hit_ratio", Ratio(hits, lookups), "ratio", lookups);
  Metric("cache.reload_bytes_per_op", per_op(Counter::kCacheReloadBytes), "B",
         ops);
  Metric("cache.evictions_per_op", per_op(Counter::kCacheEvictions), "count",
         ops);
}

int Report::Finish() {
  std::ostringstream lines;
  for (const auto& [key, value] : config_rows_) {
    lines << "{\"workload\":\"" << config_.workload << "\",\"config\":\"" << key
          << "\",\"value\":" << JsonNumber(value) << "}\n";
  }
  for (const auto& [name, row] : metrics_) {
    if (!std::isfinite(row.value)) {
      std::cerr << "st4ml_bench: metric " << name << " is not finite\n";
      return 3;
    }
    lines << "{\"workload\":\"" << config_.workload << "\",\"metric\":\""
          << name << "\",\"value\":" << JsonNumber(row.value)
          << ",\"unit\":\"" << row.unit << "\",\"samples\":" << row.samples
          << "}\n";
  }
  std::ostringstream result;
  result << "{\"correct\":" << (wrong_ == 0 ? "true" : "false")
         << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
         << ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) -> bool {
    auto it = metrics_.find(spec.name);
    if (it == metrics_.end() || it->second.unit != spec.unit) {
      std::cerr << "st4ml_bench: workload " << config_.workload
                << " did not report " << spec.name << " in " << spec.unit
                << "\n";
      return false;
    }
    result << (first ? "" : ",") << "\"" << spec.name
           << "\":{\"value\":" << JsonNumber(it->second.value)
           << ",\"unit\":\"" << spec.unit << "\"}";
    first = false;
    return true;
  };
  if (config_.traced) {
    for (const MetricSpec& spec : kPerLayer) {
      if (!emit(spec)) return 3;
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      if (!emit(spec)) return 3;
    }
  }
  result << "}}";
  if (attempted_ == 0) {
    std::cerr << "st4ml_bench: no operation was attempted\n";
    return 3;
  }
  std::cout << lines.str() << result.str() << std::endl;
  return wrong_ == 0 ? 0 : 1;
}

SpanTimes AnalyzeSpans(const Tracer& tracer) {
  std::vector<SpanRecord> spans = tracer.Spans();
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && s.end_us >= 0) {
      children[s.parent].emplace_back(s.start_us, s.end_us);
    }
  }
  SpanTimes out;
  for (const SpanRecord& s : spans) {
    if (s.end_us < 0) continue;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = -1;
      int64_t cur_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (a > cur_end) {
          covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      covered += cur_end - cur_start;
    }
    const double total = static_cast<double>(s.end_us - s.start_us) / 1000.0;
    out.total_ms[s.name].Add(total);
    out.self_ms[s.name].Add(total - static_cast<double>(covered) / 1000.0);
  }
  return out;
}

void ExportTrace(const Tracer& tracer, const RunConfig& config) {
  if (config.trace_out.empty()) return;
  Status status = WriteChromeTrace(tracer, config.trace_out);
  if (!status.ok()) {
    std::cerr << "st4ml_bench: trace export failed: " << status.ToString()
              << "\n";
  }
}

std::vector<std::string> StpqFilesIn(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".stpq") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string Request(const char* verb, const std::string& dir,
                    const STBox* box, const std::string& extra) {
  // Staging paths are the benchmark's own; they never need escaping.
  ST4ML_CHECK(dir.find_first_of("\"\\") == std::string::npos) << dir;
  std::ostringstream req;
  req.precision(17);
  req << "{\"verb\":\"" << verb << "\",\"dir\":\"" << dir << "\"";
  if (box != nullptr) {
    req << ",\"mbr\":[" << box->mbr.x_min << "," << box->mbr.y_min << ","
        << box->mbr.x_max << "," << box->mbr.y_max << "],\"time\":["
        << box->time.start() << "," << box->time.end() << "]";
  }
  req << extra << "}";
  return req.str();
}

Reply Call(server::Client& client, const std::string& request) {
  Reply reply;
  auto start = Clock::now();
  auto raw = client.Call(request);
  reply.rtt_ms = MsSince(start);
  if (!raw.ok()) {
    reply.error = raw.status().ToString();
    return reply;
  }
  auto parsed = server::ParseJson(*raw);
  if (!parsed.ok()) {
    reply.error = "unparseable response: " + *raw;
    return reply;
  }
  reply.json = std::move(*parsed);
  const server::JsonValue* ok = reply.json.Find("ok");
  if (ok == nullptr || !ok->bool_value) {
    reply.error = *raw;
    return reply;
  }
  reply.ok = true;
  reply.count = reply.json.GetInt("count", -1);
  reply.handle_ms =
      static_cast<double>(reply.json.GetInt("elapsed_us", 0)) / 1000.0;
  return reply;
}

void ProbeStorageIndexAccel(const ProbeInput& in, Report* report) {
  // storage: whole-file decode, repeated until the total is measurable.
  // The first pass also keeps each file's envelopes for the accel probe.
  std::vector<accel::EnvelopeColumns> cols(in.stpq_files.size());
  double decode_ms = 0;
  uint64_t decoded = 0;
  for (int pass = 0; pass == 0 || (decode_ms < 250 && pass < 50); ++pass) {
    for (size_t f = 0; f < in.stpq_files.size(); ++f) {
      auto start = Clock::now();
      auto records = ReadStpqFile<EventRecord>(in.stpq_files[f], nullptr);
      decode_ms += MsSince(start);
      ST4ML_CHECK(records.ok()) << records.status().ToString();
      decoded += records->size();
      if (pass > 0) continue;
      cols[f].Reserve(records->size());
      for (const EventRecord& r : *records) cols[f].Append(r.ComputeSTBox());
    }
  }
  report->Metric("storage.decode_ns_per_record",
                 decode_ms * 1e6 / static_cast<double>(decoded), "ns", decoded);

  // index: open the sidecar and walk it for one box, per (file, box),
  // over at most 256 evenly spread pairs.
  const std::vector<STBox> boxes = Spread(in.boxes, 32);
  const size_t pairs = boxes.size() * in.stpq_files.size();
  const size_t stride = std::max<size_t>(1, pairs / 256);
  Samples index_us;
  for (size_t pair = 0; pair < pairs; pair += stride) {
    const auto q = accel::BoxFilterQuery::FromBox(boxes[pair % boxes.size()]);
    const std::string& path = in.stpq_files[pair / boxes.size()];
    auto start = Clock::now();
    auto index = StixIndex::Open(StixPathFor(path), path);
    ST4ML_CHECK(index.ok()) << index.status().ToString();
    std::vector<uint32_t> hits;
    StixQueryStats stats;
    index->QueryBox(q, &hits, &stats);
    index_us.Add(MsSince(start) * 1000.0);
  }
  report->Metric("index.query_us_p50", index_us.Median(), "us",
                 index_us.size());

  // accel: the active backend's box filter over each file's envelopes.
  double filter_ms = 0;
  uint64_t filtered = 0;
  std::vector<uint8_t> bitmap;
  for (int pass = 0; pass == 0 || (filter_ms < 100 && pass < 200); ++pass) {
    for (const STBox& box : boxes) {
      const auto q = accel::BoxFilterQuery::FromBox(box);
      for (const accel::EnvelopeColumns& c : cols) {
        const accel::EnvelopeView view = c.View();
        bitmap.assign(view.size, 0);
        auto start = Clock::now();
        accel::Active().FilterBoxes(q, view, bitmap.data());
        filter_ms += MsSince(start);
        filtered += view.size;
      }
    }
  }
  report->Metric("accel.filter_ns_per_record",
                 filter_ms * 1e6 / static_cast<double>(filtered), "ns",
                 filtered);
}

void ProbePipeline(const std::shared_ptr<ExecutionContext>& ctx,
                   const std::string& dir, bool merged, const ProbeInput& in,
                   Report* report) {
  Samples select_ms, partition_ms, parse_ms, convert_ms, extract_ms;
  for (const STBox& box : Spread(in.boxes, 16)) {
    Selector<EventRecord> selector(ctx, SelectQuery::FromBox(box));
    auto start = Clock::now();
    auto selected = merged ? selector.SelectIngest(dir)
                           : selector.Select(dir, dir + "/index.meta");
    select_ms.Add(MsSince(start));
    ST4ML_CHECK(selected.ok()) << selected.status().ToString();

    TSTRPartitioner partitioner(4, 4);
    start = Clock::now();
    auto partitioned = TrySTPartition(
        *selected, &partitioner,
        [](const EventRecord& r) { return r.ComputeSTBox(); },
        [](const EventRecord& r) { return static_cast<uint64_t>(r.id); });
    partition_ms.Add(MsSince(start));
    ST4ML_CHECK(partitioned.ok()) << partitioned.status().ToString();

    start = Clock::now();
    Dataset<STEvent> events = ParseEvents(*partitioned);
    parse_ms.Add(MsSince(start));

    start = Clock::now();
    auto structure = std::make_shared<const TemporalStructure>(
        TemporalStructure::RegularByInterval(box.time, 3600));
    TimeSeriesConverter<STEvent> converter(structure);
    auto series = converter.Convert(events);
    convert_ms.Add(MsSince(start));

    start = Clock::now();
    TimeSeries<int64_t> flow = ExtractTsFlow(series);
    extract_ms.Add(MsSince(start));
    int64_t total = 0;
    for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
    if (static_cast<size_t>(total) != selected->Count()) {
      report->WrongAnswer("probe hourly flow total " + std::to_string(total) +
                          " != selected " +
                          std::to_string(selected->Count()));
    }
  }
  if (!report->Has("selection.select_ms_p50")) {  // the workload's own wins
    report->Metric("selection.select_ms_p50", select_ms.Median(), "ms",
                   select_ms.size());
  }
  report->Metric("partition.st_partition_ms_p50", partition_ms.Median(), "ms",
                 partition_ms.size());
  report->Metric("conversion.parse_ms_p50", parse_ms.Median(), "ms",
                 parse_ms.size());
  report->Metric("conversion.convert_ms_p50", convert_ms.Median(), "ms",
                 convert_ms.size());
  report->Metric("extraction.extract_ms_p50", extract_ms.Median(), "ms",
                 extract_ms.size());
}

void ProbeServer(const std::string& dir, const ProbeInput& in,
                 Report* report) {
  ToolOptions options;
  options.has_cache_budget = true;
  options.cache_budget_bytes = 0;
  options.num_workers = in.workers;
  Session session(options);
  server::Server daemon(&session, {});
  Status started = daemon.Start();
  ST4ML_CHECK(started.ok()) << started.ToString();
  auto client = server::Client::Connect(daemon.port());
  ST4ML_CHECK(client.ok()) << client.status().ToString();
  Samples handle_ms, wire_ms;
  for (const STBox& box : Spread(in.boxes, 32)) {
    Reply reply = Call(*client, Request("select", dir, &box, ",\"limit\":0"));
    ST4ML_CHECK(reply.ok) << reply.error;
    handle_ms.Add(reply.handle_ms);
    wire_ms.Add(reply.rtt_ms - reply.handle_ms);
  }
  client->Close();
  daemon.Shutdown();
  report->Metric("server.handle_ms_p50", handle_ms.Median(), "ms",
                 handle_ms.size());
  report->Metric("server.handle_ms_p99", handle_ms.Percentile(99), "ms",
                 handle_ms.size());
  report->Metric("server.wire_ms_p50", wire_ms.Median(), "ms",
                 wire_ms.size());
}

void ProbeAppend(const std::string& scratch_dir,
                 const std::vector<EventRecord>& events, Report* report) {
  constexpr size_t kBatch = 1024;
  constexpr size_t kMaxBatches = 64;
  // A feed arrives roughly in time order; appending a batch scattered over
  // the whole range would open (and seal) one WAL bucket per record.
  std::vector<EventRecord> feed(
      events.begin(),
      events.begin() + std::min(events.size(), kBatch * kMaxBatches));
  std::sort(feed.begin(), feed.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.time < b.time;
            });
  Samples batch_ms;
  {
    auto ingestor = Ingestor::Open(scratch_dir);
    ST4ML_CHECK(ingestor.ok()) << ingestor.status().ToString();
    for (size_t at = 0; at + kBatch <= feed.size(); at += kBatch) {
      std::vector<EventRecord> batch(feed.begin() + at,
                                     feed.begin() + at + kBatch);
      auto start = Clock::now();
      Status acked = (*ingestor)->AppendBatch(batch);
      batch_ms.Add(MsSince(start));
      ST4ML_CHECK(acked.ok()) << acked.ToString();
    }
  }
  fs::remove_all(scratch_dir);
  report->Metric("ingest.append_batch_ms_p50", batch_ms.Median(), "ms",
                 batch_ms.size());
  report->Metric("ingest.append_batch_ms_p99", batch_ms.Percentile(99), "ms",
                 batch_ms.size());
}

}  // namespace perfbench
}  // namespace st4ml
