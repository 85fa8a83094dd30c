// Cold-start selection benchmark: the tentpole measurement for the
// persistent `.stix` sidecar (DESIGN.md §12). Stages one on-disk STPQ
// index, then times the SAME selective query through the two cold paths a
// fresh process can take:
//
//   parse_build  cache enabled — the pre-sidecar cold start: parse every
//                surviving part file end to end and build the in-memory
//                index as a side effect (the cached plan never consults
//                the sidecars).
//   mmap_index   cache disabled — mmap the sidecar, walk the packed tree,
//                and ranged-read only matching records.
//
// Emits one JSON object per mode plus a summary row (bench/run_bench.sh
// writes BENCH_coldstart.json at the repo root). The bench doubles as a
// correctness gate: both paths must produce checksum-identical outputs at
// every size, and at >= 1M records the mmap path must be >= 3x faster
// than parse-and-build while reading fewer .stpq bytes.
//
// Usage: bench_coldstart [--records=N] [--reps=R]

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "st4ml.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

constexpr size_t kGateRecords = 1000000;
constexpr double kGateSpeedup = 3.0;

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

uint64_t Checksum(std::vector<EventRecord> records) {
  // Selection order is partition-interleaved; checksum over a canonical
  // order so both plans hash the same set the same way.
  std::sort(records.begin(), records.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.id < b.id;
            });
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

struct ModeResult {
  double seconds = 0;
  uint64_t count = 0;
  uint64_t checksum = 0;
  MetricsSnapshot metrics;
};

/// One cold pass: a FRESH context per rep, so nothing carries over and
/// every timing is a true cold start for its mode. Best-of-reps.
ModeResult RunMode(const std::string& dir, const std::string& meta,
                   const STBox& query, bool disk_index, int reps) {
  ModeResult best;
  for (int rep = 0; rep < reps; ++rep) {
    auto ctx = ExecutionContext::Create();
    if (!disk_index) {
      // parse_build: the cached-index plan, starting cold — parse every
      // surviving file and build the in-memory index as a side effect.
      DatasetCache::Options cache;
      cache.budget_bytes = DatasetCache::kUnbounded;
      ctx->ConfigureCache(std::move(cache));
    }
    Selector<EventRecord> selector(ctx, SelectQuery::FromBox(query));
    Stopwatch watch;
    auto selected = selector.Select(dir, meta);
    double seconds = watch.ElapsedSeconds();
    if (!selected.ok()) {
      std::cerr << "bench_coldstart: " << selected.status().ToString() << "\n";
      std::exit(1);
    }
    auto records = std::move(*selected).Collect();
    uint64_t count = records.size();
    uint64_t sum = Checksum(std::move(records));
    if (rep > 0 && sum != best.checksum) {
      std::cerr << "bench_coldstart: nondeterministic output across reps\n";
      std::exit(1);
    }
    if (rep == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.metrics = ctx->MetricsSnapshot();
    }
    best.count = count;
    best.checksum = sum;
  }
  return best;
}

void EmitRow(const char* mode, size_t records, const ModeResult& r) {
  std::cout << "{\"mode\":\"" << mode << "\""
            << ",\"records\":" << records
            << ",\"cold_seconds\":" << r.seconds
            << ",\"selected\":" << r.count
            << ",\"checksum\":" << r.checksum
            << ",\"stpq_bytes_read\":" << r.metrics[Counter::kStpqBytesRead]
            << ",\"index_files_mmapped\":"
            << r.metrics[Counter::kIndexFilesMmapped]
            << ",\"index_pages_read\":" << r.metrics[Counter::kIndexPagesRead]
            << ",\"planner_mmap_index\":"
            << r.metrics[Counter::kPlannerMmapIndex]
            << ",\"planner_cached_index\":"
            << r.metrics[Counter::kPlannerCachedIndex]
            << ",\"planner_linear_scan\":"
            << r.metrics[Counter::kPlannerLinearScan] << "}" << std::endl;
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
      std::cerr << "usage: bench_coldstart [--records=N] [--reps=R]\n";
      return 2;
    }
  }

  std::string dir = (fs::temp_directory_path() /
                     ("st4ml_bench_coldstart_" + std::to_string(::getpid())))
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
      std::cerr << "bench_coldstart: " << staged.ToString() << "\n";
      return 1;
    }
  }

  // A selective window (~0.6% of the domain volume): the regime the
  // sidecar exists for — most records never deserve a parse.
  STBox query(Mbr(10, 10, 25, 25), Duration(0, 25000));

  ModeResult parse_build =
      RunMode(dir, meta, query, /*disk_index=*/false, reps);
  ModeResult mmap_index = RunMode(dir, meta, query, /*disk_index=*/true, reps);
  EmitRow("parse_build", records, parse_build);
  EmitRow("mmap_index", records, mmap_index);

  bool identical = parse_build.checksum == mmap_index.checksum &&
                   parse_build.count == mmap_index.count;
  double speedup = mmap_index.seconds > 0
                       ? parse_build.seconds / mmap_index.seconds
                       : 0;
  uint64_t baseline_bytes = parse_build.metrics[Counter::kStpqBytesRead];
  uint64_t mmap_bytes = mmap_index.metrics[Counter::kStpqBytesRead];
  bool gated = records >= kGateRecords;
  std::cout << "{\"mode\":\"summary\",\"records\":" << records
            << ",\"cold_speedup\":" << speedup
            << ",\"baseline_stpq_bytes_read\":" << baseline_bytes
            << ",\"mmap_stpq_bytes_read\":" << mmap_bytes
            << ",\"output_identical\":" << (identical ? "true" : "false")
            << ",\"gated\":" << (gated ? "true" : "false") << "}"
            << std::endl;
  fs::remove_all(dir);

  if (!identical) {
    std::cerr << "MISMATCH: mmap-index selection diverged from the "
                 "parse-and-build reference\n";
    return 1;
  }
  if (gated && speedup < kGateSpeedup) {
    std::cerr << "GATE: cold mmap select " << speedup << "x < required "
              << kGateSpeedup << "x at " << records << " records\n";
    return 1;
  }
  if (gated && mmap_bytes >= baseline_bytes) {
    std::cerr << "GATE: mmap path read " << mmap_bytes
              << " .stpq bytes, not fewer than parse-and-build's "
              << baseline_bytes << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace st4ml

int main(int argc, char** argv) { return st4ml::Run(argc, argv); }
