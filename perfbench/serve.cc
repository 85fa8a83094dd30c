// serve_warm / serve_thrash: an in-process Session + st4mld Server on
// loopback serving 250k events in 16 T-STR parts with `.stix` sidecars.
// min(nproc, 4) closed-loop clients, one connection each, send a
// round-robin mix of count-only select, select limit=100, lookup_id of 16
// ids, and hourly extract over a seeded pool of 64 boxes (30% x 30% of
// space x 20% of time). serve_warm keeps the daemon's default unbounded
// cache (primed in setup); serve_thrash caps it at 25% of the dataset's
// .stpq bytes, so the working set is four times the cache.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "datagen/generators.h"
#include "partition/str_partitioner.h"
#include "pipeline/session.h"
#include "selection/on_disk_index.h"
#include "server/server.h"
#include "storage/stpq.h"

namespace st4ml {
namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int64_t kEvents = 250000;
constexpr int kPoolGrid = 8;
constexpr size_t kPoolBoxes = kPoolGrid * kPoolGrid;
constexpr size_t kLookupIds = 16;
constexpr int64_t kRowLimit = 100;

enum Verb { kSelectCount, kSelectRows, kLookupId, kExtract, kNumVerbs };
const char* const kVerbNames[kNumVerbs] = {"select_count", "select_rows",
                                           "lookup_id", "extract"};

/// One daemon and the data it serves; destroyed server-first.
struct Daemon {
  std::string dir;
  uint64_t stpq_bytes = 0;
  std::unique_ptr<Session> session;
  std::unique_ptr<server::Server> server;
};

/// Generates and stages the events, starts the daemon with the workload's
/// cache budget, and primes the cache with one select over the whole
/// dataset. The generated records are dropped once staged, so the peak
/// resident set is the daemon's, not the staging copies'.
void Setup(const NycEventOptions& gen, const RunConfig& config, bool thrash,
           const std::string& dir, Daemon* d, Report* report) {
  d->dir = dir;
  fs::create_directories(dir);
  {
    auto ctx = ExecutionContext::Create(config.workers);
    auto data = Dataset<EventRecord>::Parallelize(ctx, GenerateNycEvents(gen),
                                                  16);
    TSTRPartitioner partitioner(4, 4);  // 16 parts
    Status staged =
        BuildOnDiskIndex(data, &partitioner, dir, dir + "/index.meta");
    ST4ML_CHECK(staged.ok()) << staged.ToString();
  }
  d->stpq_bytes = 0;
  for (const std::string& path : StpqFilesIn(dir)) {
    d->stpq_bytes += FileSizeBytes(path);
  }
  ToolOptions options;
  options.has_cache_budget = true;
  options.cache_budget_bytes =
      thrash ? static_cast<int64_t>(d->stpq_bytes / 4) : -1;
  options.num_workers = config.workers;
  d->session = std::make_unique<Session>(options);
  ST4ML_CHECK(d->session->configure_status().ok())
      << d->session->configure_status().ToString();
  d->server = std::make_unique<server::Server>(d->session.get(),
                                               server::ServerOptions{});
  Status started = d->server->Start();
  ST4ML_CHECK(started.ok()) << started.ToString();

  auto client = server::Client::Connect(d->server->port());
  ST4ML_CHECK(client.ok()) << client.status().ToString();
  const STBox all(gen.extent, gen.range);
  Reply primed = Call(*client, Request("select", dir, &all, ",\"limit\":0"));
  ST4ML_CHECK(primed.ok) << primed.error;
  if (primed.count != gen.count) {
    report->WrongAnswer("priming select counted " +
                        std::to_string(primed.count) + " of " +
                        std::to_string(gen.count) + " events");
  }
}

void Teardown(Daemon* d) {
  if (d->server != nullptr) d->server->Shutdown();
  d->server.reset();
  d->session.reset();
  if (!d->dir.empty()) fs::remove_all(d->dir);
}

struct Sent {
  Verb verb;
  size_t box;
  bool ok = false;
  int64_t count = -1;
  double rtt_ms = 0;
  double handle_ms = 0;
  std::vector<int64_t> row_ids;  // select_rows / lookup_id, in reply order
};

/// `clients` closed-loop connections until `seconds` pass. Client c's j-th
/// request uses verb (c + j) % 4 on pool box j / 4 + c * 64 / clients: the
/// verb mix is balanced at every moment, every box is asked all four ways
/// (so no verb draws cheaper boxes than another), and the clients start
/// in different quarters of the pool.
std::vector<Sent> RunClients(const Daemon& d, int clients,
                             const std::vector<STBox>& boxes,
                             const std::vector<std::string>& id_lists,
                             double seconds, Tracer* tracer) {
  std::vector<std::vector<Sent>> per_client(clients);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = server::Client::Connect(d.server->port());
      for (size_t j = 0; Clock::now() < deadline; ++j) {
        Sent r;
        r.verb = static_cast<Verb>((c + j) % kNumVerbs);
        r.box = (j / kNumVerbs + c * kPoolBoxes / clients) % kPoolBoxes;
        if (!client.ok()) {
          per_client[c].push_back(r);  // counts as failed
          break;
        }
        const STBox& box = boxes[r.box];
        std::string request;
        switch (r.verb) {
          case kSelectCount:
            request = Request("select", d.dir, &box, ",\"limit\":0");
            break;
          case kSelectRows:
            request = Request("select", d.dir, &box,
                              ",\"limit\":" + std::to_string(kRowLimit));
            break;
          case kLookupId:
            request = Request("lookup_id", d.dir, nullptr,
                              ",\"ids\":" + id_lists[r.box]);
            break;
          case kExtract:
            request = Request("extract", d.dir, &box, ",\"interval\":3600");
            break;
          case kNumVerbs:
            break;
        }
        ScopedSpan span(tracer, span_category::kJob,
                        std::string("request/") + kVerbNames[r.verb]);
        Reply reply = Call(*client, request);
        span.AddArg("elapsed_us",
                    static_cast<uint64_t>(reply.handle_ms * 1000.0));
        span.End();
        r.ok = reply.ok;
        r.count = reply.count;
        r.rtt_ms = reply.rtt_ms;
        r.handle_ms = reply.handle_ms;
        if (reply.ok && (r.verb == kSelectRows || r.verb == kLookupId)) {
          if (const server::JsonValue* rows = reply.json.Find("rows")) {
            for (const server::JsonValue& row : rows->array) {
              r.row_ids.push_back(row.GetInt("id", -1));
            }
          }
        }
        per_client[c].push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sent> all;
  for (auto& requests : per_client) {
    for (Sent& r : requests) all.push_back(std::move(r));
  }
  return all;
}

/// The brute-force answer for one pool box: its match count and the
/// lowest `kRowLimit` matching ids (what select limit=100 must return).
struct Expected {
  int64_t count = 0;
  std::vector<int64_t> first_ids;
};

Expected BruteForce(const std::vector<EventRecord>& events, const STBox& box) {
  Expected e;
  for (const EventRecord& r : events) {
    if (r.ComputeSTBox().Intersects(box)) e.first_ids.push_back(r.id);
  }
  e.count = static_cast<int64_t>(e.first_ids.size());
  const size_t keep = std::min<size_t>(e.first_ids.size(), kRowLimit);
  std::partial_sort(e.first_ids.begin(), e.first_ids.begin() + keep,
                    e.first_ids.end());
  e.first_ids.resize(keep);
  return e;
}

/// Checks every reply against the brute-force answers (and the requested
/// id sets); failed requests are counted, not checked.
void CheckReplies(const std::vector<Sent>& requests,
                  const std::vector<Expected>& expected,
                  const std::vector<std::vector<int64_t>>& ids,
                  Report* report) {
  for (const Sent& r : requests) {
    report->Attempted(1);
    if (!r.ok) {
      report->Failed(1);
      continue;
    }
    const std::string what = std::string(kVerbNames[r.verb]) + " box " +
                             std::to_string(r.box) + ": ";
    if (r.verb == kLookupId) {
      std::vector<int64_t> got(r.row_ids);
      std::sort(got.begin(), got.end());
      if (r.count != static_cast<int64_t>(kLookupIds) || got != ids[r.box]) {
        report->WrongAnswer(what + "count " + std::to_string(r.count) +
                            ", rows do not match the requested ids");
      }
      continue;
    }
    // extract's total over its hourly bins must equal the select count.
    if (r.count != expected[r.box].count) {
      report->WrongAnswer(what + "count " + std::to_string(r.count) +
                          ", reference " +
                          std::to_string(expected[r.box].count));
    } else if (r.verb == kSelectRows &&
               r.row_ids != expected[r.box].first_ids) {
      report->WrongAnswer(what + "rows are not the lowest matching ids");
    }
  }
}

}  // namespace

int RunServe(const RunConfig& config, bool thrash) {
  Report report(config);
  const int clients = config.workers;
  report.Config("workers", config.workers);
  report.Config("clients", clients);

  // Fixed data (the generator's default seed), seeded queries: see the
  // apps_cold staging comment.
  NycEventOptions gen;
  gen.count = kEvents;

  // Setup, three times from scratch (generate, stage, start, prime); the
  // median is setup_s and the last daemon is the one measured.
  Daemon daemon;
  Samples setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    Teardown(&daemon);
    auto start = Clock::now();
    Setup(gen, config, thrash,
          config.data_dir + "/setup" + std::to_string(rep), &daemon, &report);
    setup_s.Add(MsSince(start) / 1000.0);
  }
  report.Config("cache_budget_bytes",
                thrash ? static_cast<double>(daemon.stpq_bytes / 4) : -1.0);
  report.Config("stpq_bytes", static_cast<double>(daemon.stpq_bytes));

  // The query pool: 64 boxes and 64 lookup id sets from the run seed.
  std::vector<STBox> boxes;
  std::vector<std::vector<int64_t>> ids;
  std::vector<std::string> id_lists;
  {
    boxes = StratifiedBoxes(gen.extent, gen.range, gen.extent.Width() * 0.3,
                            gen.extent.Height() * 0.3,
                            (gen.range.Seconds() / 5 / 3600) * 3600,
                            kPoolGrid, StreamSeed(config.seed, 10));
    Rng rng(StreamSeed(config.seed, 11));
    for (size_t i = 0; i < boxes.size(); ++i) {
      std::vector<int64_t> set;
      while (set.size() < kLookupIds) {
        int64_t id = rng.UniformInt(0, kEvents - 1);
        if (std::find(set.begin(), set.end(), id) == set.end()) {
          set.push_back(id);
        }
      }
      std::string list = "[";
      for (size_t k = 0; k < set.size(); ++k) {
        list += (k ? "," : "") + std::to_string(set[k]);
      }
      id_lists.push_back(list + "]");
      std::sort(set.begin(), set.end());
      ids.push_back(std::move(set));
    }
  }

  const double untraced_s = config.traced ? config.seconds / 2 : config.seconds;
  const MetricsSnapshot before = daemon.session->Metrics();
  auto start = Clock::now();
  std::vector<Sent> requests =
      RunClients(daemon, clients, boxes, id_lists, untraced_s, nullptr);
  const double elapsed_s = MsSince(start) / 1000.0;
  const MetricsSnapshot counters =
      Delta(daemon.session->Metrics(), before);
  // Before any checking or probing allocates: setup plus the measured run.
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);

  Samples latency, handle, wire;
  Samples verb_handle[kNumVerbs];
  Samples verb_latency[kNumVerbs];
  for (const Sent& r : requests) {
    latency.Add(r.rtt_ms);
    if (!r.ok) continue;
    handle.Add(r.handle_ms);
    wire.Add(r.rtt_ms - r.handle_ms);
    verb_handle[r.verb].Add(r.handle_ms);
    verb_latency[r.verb].Add(r.rtt_ms);
  }
  report.Metric("setup_s", setup_s.Median(), "s", setup_s.size());
  report.Metric("latency_p50_ms", latency.Median(), "ms", latency.size());
  report.Metric("latency_p90_ms", latency.Percentile(90), "ms",
                latency.size());
  report.Metric("throughput_ops_s", requests.size() / elapsed_s, "1/s",
                requests.size());
  report.Metric("latency_p99_ms", latency.Percentile(99), "ms",
                latency.size());
  report.Metric("server.handle_ms_p50", handle.Median(), "ms", handle.size());
  report.Metric("server.handle_ms_p99", handle.Percentile(99), "ms",
                handle.size());
  report.Metric("server.wire_ms_p50", wire.Median(), "ms", wire.size());
  for (int v = 0; v < kNumVerbs; ++v) {
    report.Metric(std::string("server.") + kVerbNames[v] + ".handle_ms_p50",
                  verb_handle[v].Median(), "ms", verb_handle[v].size());
    report.Metric(std::string("latency.") + kVerbNames[v] + ".p50_ms",
                  verb_latency[v].Median(), "ms", verb_latency[v].size());
  }
  report.CounterMetrics(counters, requests.size());

  // The reference: the generator is deterministic, so this regenerates
  // exactly the events the daemon serves.
  const std::vector<EventRecord> events = GenerateNycEvents(gen);
  std::vector<Sent> traced;
  if (config.traced) {
    Tracer tracer;
    traced = RunClients(daemon, clients, boxes, id_lists,
                        config.seconds - untraced_s, &tracer);
    Samples traced_latency;
    for (const Sent& r : traced) traced_latency.Add(r.rtt_ms);
    report.Metric("trace.overhead_ratio",
                  traced_latency.Median() / latency.Median(), "ratio",
                  traced.size());
    ExportTrace(tracer, config);

    ProbeInput probe;
    probe.stpq_files = StpqFilesIn(daemon.dir);
    probe.boxes = boxes;
    probe.workers = config.workers;
    ProbeStorageIndexAccel(probe, &report);
    ProbePipeline(daemon.session->context(), daemon.dir, /*merged=*/false,
                  probe, &report);
    ProbeAppend(config.data_dir + "/append_probe", events, &report);
  }

  std::vector<Expected> expected;
  for (const STBox& box : boxes) expected.push_back(BruteForce(events, box));
  CheckReplies(requests, expected, ids, &report);
  CheckReplies(traced, expected, ids, &report);

  Teardown(&daemon);
  return report.Finish();
}

}  // namespace perfbench
}  // namespace st4ml
