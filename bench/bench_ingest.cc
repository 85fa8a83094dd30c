// Streaming-ingestion benchmark and durability gate (DESIGN.md §13). Two
// phases, each doubling as a correctness gate:
//
//   throughput  sustained AppendBatch into a live Ingestor (background
//               compactor on) while a reader thread runs merged
//               SelectIngest queries the whole time. Gates:
//               >= 100k records/sec sustained append, reader counts
//               monotonically non-decreasing, final count exact.
//   recovery    a forked child appends one-record batches and reports
//               every ack over a pipe; the parent SIGKILLs it mid-stream,
//               reopens the directory, and requires the replayed count to
//               equal the acked count (the one in-flight record whose ack
//               beat the report is the only tolerance).
//
// Emits one JSON object per phase plus a summary row (bench/run_bench.sh
// writes BENCH_ingest.json at the repo root).
//
// Usage: bench_ingest [--records=N] [--batch=B]

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "st4ml.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

constexpr double kGateRecordsPerSec = 100000.0;

std::vector<EventRecord> MakeEvents(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EventRecord r;
    r.id = static_cast<int64_t>(i);
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    // Mostly time-ordered with jitter, like a real feed.
    r.time = static_cast<int64_t>(i / 4) + rng.UniformInt(0, 600);
    r.attr = std::string(static_cast<size_t>(rng.UniformInt(4, 24)), 'x');
    events.push_back(std::move(r));
  }
  return events;
}

uint64_t CountAll(Ingestor* ingestor, const std::string& dir) {
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(
      ctx, SelectQuery::FromBox(
               STBox(Mbr(-1e9, -1e9, 1e9, 1e9), Duration(-1, int64_t{1} << 40))));
  // Same discipline as the daemon: the whole merged Select under a shared
  // snapshot lock, so compaction can't swap the manifest mid-read.
  std::shared_lock<std::shared_mutex> snapshot(ingestor->snapshot_mu());
  auto selected = selector.SelectIngest(dir);
  if (!selected.ok()) {
    std::cerr << "bench_ingest: concurrent select failed: "
              << selected.status().ToString() << "\n";
    std::exit(1);
  }
  return selected->Collect().size();
}

struct ThroughputResult {
  double seconds = 0;
  double records_per_sec = 0;
  uint64_t selects_run = 0;
  uint64_t final_count = 0;
  uint64_t compactions = 0;
};

ThroughputResult RunThroughput(size_t records, size_t batch) {
  std::string dir = (fs::temp_directory_path() /
                     ("st4ml_bench_ingest_" + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  IngestorOptions options;
  options.bucket_seconds = 3600;
  options.seal_records = 16384;
  options.compact_interval_ms = 100;
  auto ingestor = Ingestor::Open(dir, options);
  if (!ingestor.ok()) {
    std::cerr << "bench_ingest: " << ingestor.status().ToString() << "\n";
    std::exit(1);
  }

  std::vector<EventRecord> events = MakeEvents(records, 42);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> selects_run{0};
  uint64_t last_seen = 0;
  bool monotonic = true;
  std::thread reader([&] {
    // A warm query concurrent with the whole append run: every count must
    // be >= the previous one (acked records never disappear).
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t count = CountAll(ingestor->get(), dir);
      if (count < last_seen) monotonic = false;
      last_seen = count;
      selects_run.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Stopwatch watch;
  for (size_t at = 0; at < events.size(); at += batch) {
    size_t end = std::min(events.size(), at + batch);
    std::vector<EventRecord> chunk(events.begin() + at, events.begin() + end);
    Status acked = (*ingestor)->AppendBatch(chunk);
    if (!acked.ok()) {
      std::cerr << "bench_ingest: " << acked.ToString() << "\n";
      std::exit(1);
    }
  }
  double seconds = watch.ElapsedSeconds();
  done.store(true);
  reader.join();

  if (!monotonic) {
    std::cerr << "bench_ingest: concurrent select count went BACKWARDS — "
                 "acked records disappeared mid-stream\n";
    std::exit(1);
  }
  uint64_t final_count = CountAll(ingestor->get(), dir);
  if (final_count != records) {
    std::cerr << "bench_ingest: merged select saw " << final_count << " of "
              << records << " acked records\n";
    std::exit(1);
  }
  Status flushed = (*ingestor)->Flush();
  if (!flushed.ok()) {
    std::cerr << "bench_ingest: " << flushed.ToString() << "\n";
    std::exit(1);
  }
  if (CountAll(ingestor->get(), dir) != records) {
    std::cerr << "bench_ingest: post-flush count diverged\n";
    std::exit(1);
  }

  ThroughputResult result;
  result.seconds = seconds;
  result.records_per_sec = static_cast<double>(records) / seconds;
  result.selects_run = selects_run.load();
  result.final_count = final_count;
  result.compactions = (*ingestor)->Stats().compactions;
  ingestor->reset();
  fs::remove_all(dir);
  return result;
}

struct RecoveryResult {
  uint64_t reported_acks = 0;
  uint64_t replayed = 0;
  uint64_t recovered_total = 0;
};

RecoveryResult RunRecovery(size_t records) {
  std::string dir = (fs::temp_directory_path() /
                     ("st4ml_bench_ingest_crash_" + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);

  int pipefd[2];
  if (pipe(pipefd) != 0) {
    std::cerr << "bench_ingest: pipe failed\n";
    std::exit(1);
  }
  pid_t child = fork();
  if (child < 0) {
    std::cerr << "bench_ingest: fork failed\n";
    std::exit(1);
  }
  if (child == 0) {
    // Child: append one-record batches, report EVERY ack. The report
    // follows the ack, so any count the parent reads is a floor on what
    // the WAL must replay.
    close(pipefd[0]);
    IngestorOptions options;
    options.seal_records = 512;
    options.compact_interval_ms = 50;
    auto ingestor = Ingestor::Open(dir, options);
    if (!ingestor.ok()) _exit(3);
    std::vector<EventRecord> events = MakeEvents(records, 7);
    uint64_t acked = 0;
    for (const EventRecord& r : events) {
      if (!(*ingestor)->AppendBatch({r}).ok()) _exit(4);
      ++acked;
      if (write(pipefd[1], &acked, sizeof(acked)) !=
          static_cast<ssize_t>(sizeof(acked))) {
        _exit(5);
      }
    }
    // Survived the whole stream without being killed (tiny --records runs):
    // exit WITHOUT sealing — still a crash as far as the WAL is concerned.
    _exit(0);
  }

  close(pipefd[1]);
  // Read acks until roughly mid-stream, then SIGKILL mid-append.
  uint64_t last = 0;
  uint64_t value = 0;
  while (read(pipefd[0], &value, sizeof(value)) ==
         static_cast<ssize_t>(sizeof(value))) {
    last = value;
    if (last >= records / 2) {
      kill(child, SIGKILL);
      break;
    }
  }
  // Drain reports that raced the kill; the last one read is the floor.
  while (read(pipefd[0], &value, sizeof(value)) ==
         static_cast<ssize_t>(sizeof(value))) {
    last = value;
  }
  close(pipefd[0]);
  int status = 0;
  waitpid(child, &status, 0);

  auto reopened = Ingestor::Open(dir, IngestorOptions{});
  if (!reopened.ok()) {
    std::cerr << "bench_ingest: recovery open failed: "
              << reopened.status().ToString() << "\n";
    std::exit(1);
  }
  IngestorStats stats = (*reopened)->Stats();
  RecoveryResult result;
  result.reported_acks = last;
  result.replayed = stats.replayed;
  result.recovered_total = stats.staged + stats.compacted;
  uint64_t selected = CountAll(reopened->get(), dir);

  // Exact-acked-count gate: everything reported acked must be back, plus
  // at most ONE record whose ack beat its report to the pipe.
  if (result.recovered_total < result.reported_acks ||
      result.recovered_total > result.reported_acks + 1) {
    std::cerr << "bench_ingest: SIGKILL recovery lost or invented records: "
              << result.reported_acks << " acked, "
              << result.recovered_total << " recovered\n";
    std::exit(1);
  }
  if (selected != result.recovered_total) {
    std::cerr << "bench_ingest: post-recovery select saw " << selected
              << " of " << result.recovered_total << " recovered records\n";
    std::exit(1);
  }
  reopened->reset();
  fs::remove_all(dir);
  return result;
}

int Run(int argc, char** argv) {
  size_t records = 500000;
  size_t batch = 1024;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--records=", 0) == 0) {
      records = std::stoul(flag.substr(10));
    } else if (flag.rfind("--batch=", 0) == 0) {
      batch = std::stoul(flag.substr(8));
    } else {
      std::cerr << "usage: bench_ingest [--records=N] [--batch=B]\n";
      return 2;
    }
  }

  ThroughputResult throughput = RunThroughput(records, batch);
  std::cout << "{\"mode\":\"throughput\",\"records\":" << records
            << ",\"batch\":" << batch
            << ",\"seconds\":" << throughput.seconds
            << ",\"records_per_sec\":" << throughput.records_per_sec
            << ",\"concurrent_selects\":" << throughput.selects_run
            << ",\"final_count\":" << throughput.final_count
            << ",\"compactions\":" << throughput.compactions << "}"
            << std::endl;

  RecoveryResult recovery = RunRecovery(std::max<size_t>(records / 10, 2000));
  std::cout << "{\"mode\":\"recovery\",\"reported_acks\":"
            << recovery.reported_acks
            << ",\"replayed\":" << recovery.replayed
            << ",\"recovered_total\":" << recovery.recovered_total << "}"
            << std::endl;

  bool rate_ok = throughput.records_per_sec >= kGateRecordsPerSec;
  std::cout << "{\"mode\":\"summary\",\"records\":" << records
            << ",\"records_per_sec\":" << throughput.records_per_sec
            << ",\"rate_gate\":" << (rate_ok ? "true" : "false")
            << ",\"recovery_gate\":true}" << std::endl;
  if (!rate_ok) {
    std::cerr << "bench_ingest: sustained append "
              << throughput.records_per_sec << " records/sec is below the "
              << kGateRecordsPerSec << " gate\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace st4ml

int main(int argc, char** argv) { return st4ml::Run(argc, argv); }
