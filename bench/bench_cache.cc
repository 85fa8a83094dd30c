// Dataset-cache benchmark: stages one on-disk STPQ index, then runs the
// same metadata-pruned Selection twice per budget level — budget 0 (the
// seed behavior: every pass reads files), a thrash-sized budget (every
// insert evicts, and an evicted file reloads from its origin), the same
// thrash budget with 4 threads each running the Selection at once on one
// shared context (their Gets race evictions and reloads of the same files;
// a pass's time is the wall time until all 4 finish), and unbounded (the
// warm pass is pure memory). Emits one JSON object per budget level so
// perf PRs leave a machine-readable trajectory (bench/run_bench.sh writes
// it to BENCH_cache.json), and exits non-zero if any pass's selected output
// (every thread's, for the concurrent level) diverges from the budget-0
// reference — the bench doubles as a correctness gate, like bench_shuffle.
// Every row also carries
// resident_bytes_per_cached_file: the mean memory one selector cache entry
// holds (records + envelope columns) over the staged files, on top of the
// serialized bytes the budget accounts.
//
// Usage: bench_cache [--records N] [--reps R]

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "st4ml.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::vector<EventRecord> MakeEvents(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EventRecord r;
    r.id = static_cast<int64_t>(i);
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    r.time = rng.UniformInt(0, 100000);
    r.attr = std::string(static_cast<size_t>(rng.UniformInt(4, 24)), 'x');
    events.push_back(std::move(r));
  }
  return events;
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Checksum(const std::vector<EventRecord>& records) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const EventRecord& r : records) {
    hash = Fnv1a(hash, &r.id, sizeof(r.id));
    hash = Fnv1a(hash, &r.x, sizeof(r.x));
    hash = Fnv1a(hash, &r.y, sizeof(r.y));
    hash = Fnv1a(hash, &r.time, sizeof(r.time));
    hash = Fnv1a(hash, r.attr.data(), r.attr.size());
  }
  return hash;
}

/// Heap and inline bytes of one cached selector entry: the record vector,
/// attr strings too long for the small-string buffer, and the six 8-byte
/// SoA envelope columns.
uint64_t ResidentBytes(
    const selection_internal::IndexedStpqFile<EventRecord>& file) {
  uint64_t bytes = file.records.capacity() * sizeof(EventRecord) +
                   file.cols.size() * 6 * sizeof(double);
  for (const EventRecord& r : file.records) {
    if (r.attr.capacity() > std::string().capacity()) {
      bytes += r.attr.capacity() + 1;
    }
  }
  return bytes;
}

uint64_t MeanResidentBytesPerFile(const std::string& dir) {
  const std::vector<std::string> paths = ListStpqFiles(dir);
  uint64_t total = 0;
  for (const std::string& path : paths) {
    uint64_t io_bytes = 0;
    auto records = ReadStpqFile<EventRecord>(path, &io_bytes);
    if (!records.ok()) {
      std::cerr << "bench_cache: " << records.status().ToString() << "\n";
      std::exit(1);
    }
    total += ResidentBytes(*selection_internal::MakeIndexedFile<EventRecord>(
        std::move(*records)));
  }
  return paths.empty() ? 0 : total / paths.size();
}

struct PassResult {
  double first_seconds = 0;
  double second_seconds = 0;
  uint64_t checksum = 0;
  MetricsSnapshot metrics;
};

/// One pass: `threads` Selections of `query` started together on `ctx`.
/// *seconds gets the wall time until the last one finished. The selected
/// datasets are returned rather than checksummed here, so they stay alive
/// through the next pass like a caller's results would.
std::vector<Dataset<EventRecord>> RunPass(
    const std::shared_ptr<ExecutionContext>& ctx, const std::string& dir,
    const std::string& meta, const STBox& query, int threads,
    double* seconds) {
  std::vector<Dataset<EventRecord>> selected(static_cast<size_t>(threads));
  auto select = [&](int t) {
    Selector<EventRecord> selector(ctx, SelectQuery::FromBox(query));
    auto result = selector.Select(dir, meta);
    if (!result.ok()) {
      std::cerr << "bench_cache: " << result.status().ToString() << "\n";
      std::exit(1);
    }
    selected[static_cast<size_t>(t)] = std::move(result).value();
  };
  Stopwatch watch;
  if (threads == 1) {
    select(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) workers.emplace_back(select, t);
    for (std::thread& worker : workers) worker.join();
  }
  *seconds = watch.ElapsedSeconds();
  return selected;
}

/// The checksum every pass result agrees on; exits if any two differ.
uint64_t AgreedChecksum(std::vector<Dataset<EventRecord>> results) {
  const uint64_t sum = Checksum(std::move(results[0]).Collect());
  for (size_t t = 1; t < results.size(); ++t) {
    if (Checksum(std::move(results[t]).Collect()) != sum) {
      std::cerr << "bench_cache: concurrent selections disagree\n";
      std::exit(1);
    }
  }
  return sum;
}

PassResult RunBudget(const std::string& dir, const std::string& meta,
                     const STBox& query, uint64_t budget, int threads,
                     int reps) {
  PassResult best;
  for (int rep = 0; rep < reps; ++rep) {
    auto ctx = ExecutionContext::Create();
    DatasetCache::Options options;
    options.budget_bytes = budget;
    ctx->ConfigureCache(std::move(options));

    double first_seconds = 0;
    double second_seconds = 0;
    auto first = RunPass(ctx, dir, meta, query, threads, &first_seconds);
    auto second = RunPass(ctx, dir, meta, query, threads, &second_seconds);
    uint64_t first_sum = AgreedChecksum(std::move(first));
    uint64_t second_sum = AgreedChecksum(std::move(second));
    if (first_sum != second_sum) {
      std::cerr << "bench_cache: warm pass changed the output (budget "
                << budget << ")\n";
      std::exit(1);
    }
    if (rep == 0 || first_seconds < best.first_seconds) {
      best.first_seconds = first_seconds;
    }
    if (rep == 0 || second_seconds < best.second_seconds) {
      best.second_seconds = second_seconds;
    }
    best.checksum = first_sum;
    best.metrics = ctx->MetricsSnapshot();
  }
  return best;
}

void EmitRow(const char* label, uint64_t budget, int threads, size_t records,
             uint64_t resident_per_file, const PassResult& r,
             bool output_identical) {
  double speedup =
      r.second_seconds > 0 ? r.first_seconds / r.second_seconds : 0;
  std::cout << "{\"budget\":\"" << label << "\""
            << ",\"budget_bytes\":" << budget << ",\"threads\":" << threads
            << ",\"records\":" << records
            << ",\"first_pass_seconds\":" << r.first_seconds
            << ",\"second_pass_seconds\":" << r.second_seconds
            << ",\"second_pass_speedup\":" << speedup
            << ",\"stpq_bytes_read\":" << r.metrics[Counter::kStpqBytesRead]
            << ",\"cache_hits\":" << r.metrics[Counter::kCacheHits]
            << ",\"cache_misses\":" << r.metrics[Counter::kCacheMisses]
            << ",\"cache_evictions\":" << r.metrics[Counter::kCacheEvictions]
            << ",\"cache_reload_bytes\":"
            << r.metrics[Counter::kCacheReloadBytes]
            << ",\"resident_bytes_per_cached_file\":" << resident_per_file
            << ",\"output_identical\":"
            << (output_identical ? "true" : "false") << "}" << std::endl;
  if (!output_identical) {
    std::cerr << "MISMATCH: budget " << label
              << " diverged from the uncached reference\n";
    std::exit(1);
  }
}

int Run(int argc, char** argv) {
  size_t records = 200000;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--records=", 0) == 0) {
      records = std::stoul(flag.substr(10));
    } else if (flag.rfind("--reps=", 0) == 0) {
      reps = std::atoi(flag.substr(7).c_str());
    } else {
      std::cerr << "usage: bench_cache [--records=N] [--reps=R]\n";
      return 2;
    }
  }

  // Stage the index once; every budget level reads the same files.
  std::string dir = (fs::temp_directory_path() /
                     ("st4ml_bench_cache_" + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string meta = dir + "/index.meta";
  {
    auto ctx = ExecutionContext::Create();
    auto data =
        Dataset<EventRecord>::Parallelize(ctx, MakeEvents(records, 42), 16);
    TSTRPartitioner partitioner(3, 3);
    Status staged = BuildOnDiskIndex(data, &partitioner, dir, meta);
    if (!staged.ok()) {
      std::cerr << "bench_cache: " << staged.ToString() << "\n";
      return 1;
    }
  }
  uint64_t staged_bytes = 0;
  for (const std::string& path : ListStpqFiles(dir)) {
    staged_bytes += FileSizeBytes(path);
  }

  // ~60% selectivity: enough survivors that the filter does real work,
  // enough rejects that the copy-only-matches warm path matters.
  STBox query(Mbr(0, 0, 100, 60), Duration(0, 100000));

  struct Level {
    const char* label;
    uint64_t budget;
    int threads;
  };
  const uint64_t thrash_budget = std::max<uint64_t>(1, staged_bytes / 8);
  const Level levels[] = {
      {"zero", 0, 1},
      {"tiny", thrash_budget, 1},
      {"tiny_concurrent", thrash_budget, 4},
      {"unbounded", DatasetCache::kUnbounded, 1},
  };
  const uint64_t resident_per_file = MeanResidentBytesPerFile(dir);
  uint64_t reference = 0;
  for (const Level& level : levels) {
    PassResult result =
        RunBudget(dir, meta, query, level.budget, level.threads, reps);
    if (level.budget == 0) reference = result.checksum;
    EmitRow(level.label, level.budget, level.threads, records,
            resident_per_file, result, result.checksum == reference);
  }
  fs::remove_all(dir);
  return 0;
}

}  // namespace
}  // namespace st4ml

int main(int argc, char** argv) { return st4ml::Run(argc, argv); }
