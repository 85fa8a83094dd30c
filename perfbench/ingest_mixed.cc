// ingest_mixed: an open-loop feed of 200k records/s in 1024-record
// AppendBatch calls into an Ingestor with its background compactor on,
// event time advancing one hour per second of schedule so buckets seal and
// compact many times, beside one closed-loop reader running merged
// SelectIngest queries over the last hour of event time x 25% of the area.
// The only write workload; it bypasses the server, conversion and
// extraction.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "ingest/ingestor.h"
#include "selection/selector.h"
#include "storage/stpq.h"

namespace st4ml {
namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr double kRecordsPerSecond = 200000;
constexpr size_t kBatch = 1024;
constexpr int64_t kEventSecondsPerSecond = 3600;  // one event-hour per second
constexpr int64_t kJitterSeconds = 600;
constexpr int64_t kEpoch = 1577836800;
// Setup appends and compacts the first two event-hours, so the reader's
// one-hour window is full from the first measured query on.
constexpr size_t kPrefillBatches =
    static_cast<size_t>(2 * kRecordsPerSecond / kBatch) + 1;
// Seal threshold: 16x the daemon default. At 200k records/s the default
// seals ~50 segments/s, and a merged read that lists an active `.open`
// segment fails NotFound when a seal renames it first (the read is then
// re-issued, see MergedCount); at this threshold buckets still seal and
// compact several times a second but reads rarely race a seal.
constexpr uint64_t kSealRecords = 65536;
const Mbr kExtent(-74.05, 40.60, -73.75, 40.90);

/// Event time of record k before jitter: advances with the schedule.
int64_t BaseTime(uint64_t k) {
  return kEpoch + static_cast<int64_t>(
                      static_cast<double>(k) * kEventSecondsPerSecond /
                      kRecordsPerSecond);
}

/// Batch b of the feed, generated on demand: the same (seed, b) always
/// yields the same records, so the checks regenerate what was appended.
std::vector<EventRecord> MakeBatch(uint64_t seed, size_t b) {
  Rng rng(StreamSeed(seed, b));
  std::vector<EventRecord> batch(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    const uint64_t k = b * kBatch + i;
    EventRecord& r = batch[i];
    r.id = static_cast<int64_t>(k);
    r.x = rng.Uniform(kExtent.x_min, kExtent.x_max);
    r.y = rng.Uniform(kExtent.y_min, kExtent.y_max);
    r.time = BaseTime(k) + rng.UniformInt(0, kJitterSeconds);
    r.attr = "v" + std::to_string(rng.UniformInt(0, 9999));
  }
  return batch;
}

struct Read {
  STBox box;
  bool ok = false;
  int64_t count = -1;
  uint64_t retries = 0;
  double ms = 0;
};

struct Phase {
  Samples ack_ms;    // from when the batch was due to its ack
  Samples batch_ms;  // inside AppendBatch
  double lag_max_ms = 0;
  uint64_t appended = 0;
  std::vector<Read> reads;
  double elapsed_s = 0;
};

/// One merged read under the daemon's discipline: the whole SelectIngest
/// holds the shared snapshot lock, so compaction cannot retire a listed
/// segment. A seal can still rename a listed `.open` segment before it is
/// read (NotFound); the read is then re-issued, up to kMaxAttempts times,
/// and each re-issue is counted in *retries.
StatusOr<int64_t> MergedCount(Ingestor* ingestor,
                              const std::shared_ptr<ExecutionContext>& ctx,
                              const STBox& box, uint64_t* retries) {
  constexpr int kMaxAttempts = 20;
  for (int attempt = 1;; ++attempt) {
    Selector<EventRecord> selector(ctx, SelectQuery::FromBox(box));
    std::shared_lock<std::shared_mutex> snapshot(ingestor->snapshot_mu());
    auto selected = selector.SelectIngest(ingestor->dir());
    if (selected.ok()) return static_cast<int64_t>(selected->Count());
    if (selected.status().code() != Status::Code::kNotFound ||
        attempt == kMaxAttempts) {
      return selected.status();
    }
    ++*retries;
  }
}

/// Sends batches [first, last) on the fixed schedule while the reader
/// queries, until the last batch is acked.
Phase RunPhase(Ingestor* ingestor, const std::shared_ptr<ExecutionContext>& ctx,
               uint64_t feed_seed, size_t first, size_t last,
               uint64_t reader_seed, Tracer* tracer) {
  Phase phase;
  std::atomic<bool> done{false};
  std::atomic<int64_t> acked_time{BaseTime(first * kBatch)};
  const auto t0 = Clock::now();
  std::thread reader([&] {
    Rng rng(reader_seed);
    const double w = kExtent.Width() * 0.5;
    const double h = kExtent.Height() * 0.5;
    while (!done.load(std::memory_order_relaxed)) {
      const int64_t now = acked_time.load(std::memory_order_relaxed);
      const double x = rng.Uniform(kExtent.x_min, kExtent.x_max - w);
      const double y = rng.Uniform(kExtent.y_min, kExtent.y_max - h);
      Read read;
      read.box = STBox(Mbr(x, y, x + w, y + h), Duration(now - 3600, now));
      ScopedSpan span(tracer, span_category::kJob, "read");
      auto start = Clock::now();
      {
        ScopedSpan select(tracer, span_category::kStage, "select");
        auto count = MergedCount(ingestor, ctx, read.box, &read.retries);
        read.ok = count.ok();
        read.count = count.ok() ? *count : -1;
      }
      read.ms = MsSince(start);
      phase.reads.push_back(read);
    }
  });

  const auto interval =
      std::chrono::duration<double>(kBatch / kRecordsPerSecond);
  std::vector<EventRecord> batch = MakeBatch(feed_seed, first);
  for (size_t b = first; b < last; ++b) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              interval * static_cast<double>(b - first));
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    phase.lag_max_ms = std::max(
        phase.lag_max_ms,
        std::chrono::duration<double, std::milli>(start - due).count());
    Status acked;
    {
      ScopedSpan span(tracer, span_category::kStage, "append");
      acked = ingestor->AppendBatch(batch);
    }
    const auto end = Clock::now();
    ST4ML_CHECK(acked.ok()) << acked.ToString();
    phase.batch_ms.Add(
        std::chrono::duration<double, std::milli>(end - start).count());
    phase.ack_ms.Add(
        std::chrono::duration<double, std::milli>(end - due).count());
    phase.appended += batch.size();
    acked_time.store(BaseTime((b + 1) * kBatch - 1), std::memory_order_relaxed);
    if (b + 1 < last) batch = MakeBatch(feed_seed, b + 1);
  }
  phase.elapsed_s = MsSince(t0) / 1000.0;
  done.store(true);
  reader.join();
  return phase;
}

/// One pass over the regenerated feed: each window's brute-force count
/// (a batch is scanned only for windows its event times can reach; jitter
/// only moves a record later) and the user bytes of the whole feed.
std::vector<int64_t> ExpectedCounts(uint64_t feed_seed, size_t batches,
                                    const std::vector<STBox>& windows,
                                    uint64_t* user_bytes) {
  std::vector<int64_t> counts(windows.size(), 0);
  for (size_t b = 0; b < batches; ++b) {
    const int64_t lo = BaseTime(b * kBatch);
    const int64_t hi = BaseTime((b + 1) * kBatch - 1) + kJitterSeconds;
    const std::vector<EventRecord> batch = MakeBatch(feed_seed, b);
    for (const EventRecord& r : batch) *user_bytes += StpqRecordBytes(r);
    for (size_t w = 0; w < windows.size(); ++w) {
      if (lo > windows[w].time.end() || hi < windows[w].time.start()) continue;
      for (const EventRecord& r : batch) {
        if (r.ComputeSTBox().Intersects(windows[w])) ++counts[w];
      }
    }
  }
  return counts;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

int RunIngestMixed(const RunConfig& config) {
  Report report(config);
  report.Config("workers", config.workers);
  report.Config("clients", 2);  // the feed and the reader
  report.Config("records_per_s_offered", kRecordsPerSecond);

  const uint64_t feed_seed = StreamSeed(config.seed, 1);
  const size_t batches =
      kPrefillBatches +
      static_cast<size_t>(config.seconds * kRecordsPerSecond / kBatch);
  const std::string dir = config.data_dir + "/ingest";
  IngestorOptions options;
  options.seal_records = kSealRecords;

  // Setup, three times from scratch (open a fresh ingest directory, append
  // and compact the prefill); the median is setup_s, the last is measured.
  std::unique_ptr<Ingestor> ingestor;
  std::shared_ptr<ExecutionContext> ctx;
  Samples setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    ingestor.reset();
    fs::remove_all(dir);
    auto start = Clock::now();
    ctx = ExecutionContext::Create(config.workers);
    ctx->ConfigureCache(DatasetCache::Options{});  // budget 0
    auto opened = Ingestor::Open(dir, options, ctx.get());
    ST4ML_CHECK(opened.ok()) << opened.status().ToString();
    ingestor = std::move(*opened);
    for (size_t b = 0; b < kPrefillBatches; ++b) {
      Status acked = ingestor->AppendBatch(MakeBatch(feed_seed, b));
      ST4ML_CHECK(acked.ok()) << acked.ToString();
    }
    Status flushed = ingestor->Flush();
    ST4ML_CHECK(flushed.ok()) << flushed.ToString();
    setup_s.Add(MsSince(start) / 1000.0);
  }

  const size_t measured = batches - kPrefillBatches;
  const size_t untraced =
      kPrefillBatches + (config.traced ? measured / 2 : measured);
  const MetricsSnapshot before = ctx->MetricsSnapshot();
  Phase phase = RunPhase(ingestor.get(), ctx, feed_seed, kPrefillBatches,
                         untraced, StreamSeed(config.seed, 2), nullptr);
  const MetricsSnapshot counters = Delta(ctx->MetricsSnapshot(), before);
  // Before any checking or probing allocates: setup plus the measured run.
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);
  const uint64_t compactions = ingestor->Stats().compactions;

  Samples read_ms;
  uint64_t retries = 0;
  for (const Read& r : phase.reads) {
    read_ms.Add(r.ms);
    retries += r.retries;
  }
  report.Metric("setup_s", setup_s.Median(), "s", setup_s.size());
  report.Metric("latency_p50_ms", read_ms.Median(), "ms", read_ms.size());
  report.Metric("latency_p90_ms", read_ms.Percentile(90), "ms",
                read_ms.size());
  report.Metric("throughput_ops_s", phase.reads.size() / phase.elapsed_s, "1/s",
                read_ms.size());
  report.Metric("append_ack_p50_ms", phase.ack_ms.Median(), "ms",
                phase.ack_ms.size());
  report.Metric("append_ack_p90_ms", phase.ack_ms.Percentile(90), "ms",
                phase.ack_ms.size());
  report.Metric("append_ack_p99_ms", phase.ack_ms.Percentile(99), "ms",
                phase.ack_ms.size());
  report.Metric("append_records_s", phase.appended / phase.elapsed_s, "1/s",
                phase.ack_ms.size());
  report.Metric("ingest.append_batch_ms_p50", phase.batch_ms.Median(), "ms",
                phase.batch_ms.size());
  report.Metric("ingest.append_batch_ms_p99", phase.batch_ms.Percentile(99),
                "ms", phase.batch_ms.size());
  report.Metric("ingest.gen_lag_ms_max", phase.lag_max_ms, "ms",
                phase.ack_ms.size());
  report.Metric("ingest.compactions", static_cast<double>(compactions),
                "count", 1);
  report.Metric("ingest.read_retries_per_op",
                static_cast<double>(retries) / phase.reads.size(), "count",
                phase.reads.size());
  report.CounterMetrics(counters, phase.reads.size());

  std::vector<Read> reads = std::move(phase.reads);
  report.Attempted(untraced - kPrefillBatches);
  if (config.traced) {
    Tracer tracer;
    Phase traced = RunPhase(ingestor.get(), ctx, feed_seed, untraced, batches,
                            StreamSeed(config.seed, 3), &tracer);
    report.Attempted(batches - untraced);
    SpanTimes spans = AnalyzeSpans(tracer);
    report.Metric("trace.overhead_ratio",
                  spans.total_ms["read"].Median() / read_ms.Median(), "ratio",
                  traced.reads.size());
    report.Metric("selection.select_ms_p50", spans.total_ms["select"].Median(),
                  "ms", spans.total_ms["select"].size());
    ExportTrace(tracer, config);
    reads.insert(reads.end(), traced.reads.begin(), traced.reads.end());
  }

  // Every acked record is served exactly once, and every 8th reader
  // window, re-run now, neither shrank nor differs from the brute-force
  // answer over the whole feed.
  auto count_now = [&](const STBox& box) -> int64_t {
    uint64_t ignored = 0;
    auto count = MergedCount(ingestor.get(), ctx, box, &ignored);
    ST4ML_CHECK(count.ok()) << count.status().ToString();
    return *count;
  };
  const STBox everything = SelectQuery::EverythingBox();
  const int64_t total = static_cast<int64_t>(batches * kBatch);
  if (int64_t got = count_now(everything); got != total) {
    report.WrongAnswer("merged select saw " + std::to_string(got) + " of " +
                       std::to_string(total) + " acked records");
  }
  std::vector<size_t> sampled;
  std::vector<STBox> windows;
  for (size_t i = 0; i < reads.size(); ++i) {
    report.Attempted(1);
    if (!reads[i].ok) {
      report.Failed(1);
    } else if (i % 8 == 0) {
      sampled.push_back(i);
      windows.push_back(reads[i].box);
    }
  }
  uint64_t user_bytes = 0;
  const std::vector<int64_t> expected =
      ExpectedCounts(feed_seed, batches, windows, &user_bytes);
  for (size_t w = 0; w < sampled.size(); ++w) {
    const Read& r = reads[sampled[w]];
    const int64_t now = count_now(r.box);
    if (now < r.count || now != expected[w]) {
      report.WrongAnswer("reader window " + std::to_string(sampled[w]) +
                         ": saw " + std::to_string(r.count) + ", re-run " +
                         std::to_string(now) + ", brute force " +
                         std::to_string(expected[w]));
    }
  }
  report.Config("checked_reads", static_cast<double>(sampled.size()));

  Status flushed = ingestor->Flush();
  ST4ML_CHECK(flushed.ok()) << flushed.ToString();
  if (int64_t got = count_now(everything); got != total) {
    report.WrongAnswer("after flush, merged select saw " +
                       std::to_string(got) + " of " + std::to_string(total));
  }
  ingestor.reset();
  report.Metric("ingest.space_amp",
                static_cast<double>(DirBytes(dir)) / user_bytes, "ratio", 1);

  if (config.traced) {
    ProbeInput probe;
    probe.stpq_files = StpqFilesIn(dir);
    probe.boxes = windows;
    probe.workers = config.workers;
    ProbeStorageIndexAccel(probe, &report);
    ProbePipeline(ctx, dir, /*merged=*/true, probe, &report);
    ProbeServer(dir, probe, &report);
  }
  return report.Finish();
}

}  // namespace perfbench
}  // namespace st4ml
