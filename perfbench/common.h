#ifndef ST4ML_PERFBENCH_COMMON_H_
#define ST4ML_PERFBENCH_COMMON_H_

// Shared plumbing of st4ml_bench: run configuration, latency samples, the
// metric report (per-metric lines plus the final result object), bench-side
// span analysis, and the workload-independent layer probes. Nothing here is
// timed inside src/: every number is taken around a public call or read from
// the engine's own counters.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/execution_context.h"
#include "index/stbox.h"
#include "observability/counters.h"
#include "observability/tracer.h"
#include "server/client.h"
#include "server/json.h"
#include "storage/records.h"

namespace st4ml {
namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Fresh, empty directory this run stages into (run.py removes it).
  std::string data_dir;
  /// Chrome-trace JSON written by a traced run; empty skips the file.
  std::string trace_out;
  /// min(nproc, 4): engine pool size and the cap on load-generator threads.
  int workers = 1;
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Seed of one input stream of a run: the same run seed always yields the
/// same stream, and streams of one run are independent.
uint64_t StreamSeed(uint64_t run_seed, uint64_t stream);

/// grid x grid query boxes of one shape (w x h degrees, `span` seconds)
/// inside extent x range, by stratified sampling: box k sits in its own
/// cell of a grid over the origins the shape can take and in its own slot
/// of grid^2 time slots, at seeded offsets, in seeded order. Another seed
/// moves every box but keeps the pool's coverage, and so its total work,
/// nearly the same, which is what keeps run-to-run spread low.
std::vector<STBox> StratifiedBoxes(const Mbr& extent, const Duration& range,
                                   double w, double h, int64_t span, int grid,
                                   uint64_t seed);

/// Values of one distribution (latencies in ms unless a name says other).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Engine counter deltas over a measured phase.
MetricsSnapshot Delta(const MetricsSnapshot& after,
                      const MetricsSnapshot& before);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Collects metrics, answer checks and op counts; Finish() prints one JSON
/// line per metric, then as the LAST stdout line the result object
/// {correct, attempted, failed, metrics} a benchmark runner reads: every
/// end-to-end metric untraced, every per-layer metric traced.
class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  void Metric(const std::string& name, double value, const char* unit,
              size_t samples);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// A wrong answer: logged on stderr, the run exits non-zero.
  void WrongAnswer(const std::string& what);
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }
  /// Extra context lines (pool size, client count, seed) for the log.
  void Config(const std::string& key, double value);

  /// The engine counters every workload reports as per-op ratios.
  void CounterMetrics(const MetricsSnapshot& d, uint64_t ops);

  /// Prints everything; returns the process exit code.
  int Finish();

 private:
  const RunConfig& config_;
  struct Row {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Row> metrics_;
  std::vector<std::pair<std::string, double>> config_rows_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t wrong_ = 0;
};

/// Duration (ms) and self time (ms: duration minus the union of its
/// children's intervals) of every closed span of `tracer`, grouped by name.
struct SpanTimes {
  std::map<std::string, Samples> total_ms;
  std::map<std::string, Samples> self_ms;
};
SpanTimes AnalyzeSpans(const Tracer& tracer);

/// Writes the bench-side spans as Chrome-trace JSON when a path is set.
void ExportTrace(const Tracer& tracer, const RunConfig& config);

/// Layer costs measured from outside on a workload's own files and query
/// boxes, for the per-layer metrics of layers the workload itself does not
/// call (and, for storage/index/accel, on every workload).
struct ProbeInput {
  std::vector<std::string> stpq_files;  // event .stpq parts with .stix
  std::vector<STBox> boxes;
  int workers = 1;
};
/// storage.decode_ns_per_record, index.query_us_p50,
/// accel.filter_ns_per_record.
void ProbeStorageIndexAccel(const ProbeInput& in, Report* report);
/// selection / partition / parse / convert / extract of the hourly-flow
/// pipeline (the daemon's extract verb, run in-process on `ctx`, so a
/// daemon's context selects through its own cache) over `dir`. `merged`
/// selects through SelectIngest (a streaming-ingest dir).
void ProbePipeline(const std::shared_ptr<ExecutionContext>& ctx,
                   const std::string& dir, bool merged, const ProbeInput& in,
                   Report* report);
/// server.handle_ms_p50/p99 and server.wire_ms_p50 of count-only selects
/// against a fresh in-process daemon serving `dir`.
void ProbeServer(const std::string& dir, const ProbeInput& in,
                 Report* report);
/// ingest.append_batch_ms_p50/p99: `events` appended in 1024-record
/// batches into a fresh Ingestor under `scratch_dir`.
void ProbeAppend(const std::string& scratch_dir,
                 const std::vector<EventRecord>& events, Report* report);

/// Lists `dir`'s .stpq files (sorted).
std::vector<std::string> StpqFilesIn(const std::string& dir);

/// One st4mld request: {"verb":V,"dir":D[,"mbr":[..],"time":[..]]<extra>}.
/// `extra` is appended verbatim (",\"limit\":0"); `box` may be null.
std::string Request(const char* verb, const std::string& dir,
                    const STBox* box, const std::string& extra);

/// One timed round trip. `ok` is false on a transport error or an
/// {"ok":false} response (the text is in `error`); `handle_ms` is the
/// server's own elapsed_us, so rtt_ms - handle_ms is the wire's share.
struct Reply {
  bool ok = false;
  std::string error;
  server::JsonValue json;
  int64_t count = -1;
  double handle_ms = 0;
  double rtt_ms = 0;
};
Reply Call(server::Client& client, const std::string& request);

/// Entry points, one per workload (each returns the process exit code).
int RunAppsCold(const RunConfig& config);
int RunServe(const RunConfig& config, bool thrash);
int RunIngestMixed(const RunConfig& config);

}  // namespace perfbench
}  // namespace st4ml

#endif  // ST4ML_PERFBENCH_COMMON_H_
