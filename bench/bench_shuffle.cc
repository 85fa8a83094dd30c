// Shuffle microbenchmark: the bucketed map-side shuffle (src/engine) vs the
// seed's target-side-rescan shuffle, preserved below as `legacy::`.
// Sweeps record count x partition count for ReduceByKey, GroupByKey and
// Repartition, checks the two implementations agree byte-for-byte (collected
// output AND EngineMetrics shuffle accounting), and emits one JSON object
// per line so perf PRs leave a machine-readable trajectory
// (bench/run_bench.sh writes it to BENCH_shuffle.json).
//
// Usage: bench_shuffle [--records N,N,...] [--parts N,N,...] [--reps R]

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "st4ml.h"

namespace st4ml {
namespace legacy {

// The pre-bucketing implementations: every target partition rescans ALL
// shuffled records and filters by hash — O(parts x records) target-side
// work. Kept here (not in the library) as the comparison baseline.

template <typename K, typename V, typename Reduce,
          typename Hash = std::hash<K>>
Dataset<std::pair<K, V>> ReduceByKey(const Dataset<std::pair<K, V>>& ds,
                                     Reduce reduce) {
  size_t n = ds.num_partitions();
  if (n == 0) return ds;
  const auto& ctx = ds.context();

  std::vector<std::vector<std::pair<K, V>>> combined(n);
  Status combine = ctx->TryRunParallel(n, [&](size_t p) {
    std::unordered_map<K, V, Hash> acc;
    for (const auto& [key, value] : ds.partition(p)) {
      auto it = acc.find(key);
      if (it == acc.end()) {
        acc.emplace(key, value);
      } else {
        it->second = reduce(it->second, value);
      }
    }
    combined[p].assign(acc.begin(), acc.end());
    internal::SortByKey<K, V>(&combined[p]);
    return Status::Ok();
  });
  ST4ML_CHECK(combine.ok()) << combine.ToString();

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (const auto& part : combined) {
    records += part.size();
    for (const auto& kv : part) bytes += ApproxShuffleBytes(kv);
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kReduceByKey, records,
                                      bytes);

  typename Dataset<std::pair<K, V>>::Partitions out(n);
  Status merge = ctx->TryRunParallel(n, [&](size_t target) {
    std::unordered_map<K, V, Hash> acc;
    for (const auto& part : combined) {
      for (const auto& [key, value] : part) {
        if (Hash{}(key) % n != target) continue;
        auto it = acc.find(key);
        if (it == acc.end()) {
          acc.emplace(key, value);
        } else {
          it->second = reduce(it->second, value);
        }
      }
    }
    out[target].assign(acc.begin(), acc.end());
    internal::SortByKey<K, V>(&out[target]);
    return Status::Ok();
  });
  ST4ML_CHECK(merge.ok()) << merge.ToString();
  return Dataset<std::pair<K, V>>::FromPartitions(ctx, std::move(out));
}

template <typename K, typename V, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::vector<V>>> GroupByKey(
    const Dataset<std::pair<K, V>>& ds) {
  size_t n = ds.num_partitions();
  const auto& ctx = ds.context();
  if (n == 0) return Dataset<std::pair<K, std::vector<V>>>();

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (size_t p = 0; p < n; ++p) {
    records += ds.partition(p).size();
    for (const auto& kv : ds.partition(p)) bytes += ApproxShuffleBytes(kv);
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kGroupByKey, records,
                                      bytes);

  typename Dataset<std::pair<K, std::vector<V>>>::Partitions out(n);
  Status grouped = ctx->TryRunParallel(n, [&](size_t target) {
    std::unordered_map<K, std::vector<V>, Hash> groups;
    for (size_t p = 0; p < n; ++p) {
      for (const auto& [key, value] : ds.partition(p)) {
        if (Hash{}(key) % n != target) continue;
        groups[key].push_back(value);
      }
    }
    out[target].assign(groups.begin(), groups.end());
    internal::SortByKey<K, std::vector<V>>(&out[target]);
    return Status::Ok();
  });
  ST4ML_CHECK(grouped.ok()) << grouped.ToString();
  return Dataset<std::pair<K, std::vector<V>>>::FromPartitions(ctx,
                                                               std::move(out));
}

template <typename T>
Dataset<T> Repartition(const Dataset<T>& ds, size_t num_partitions) {
  const auto& ctx = ds.context();
  typename Dataset<T>::Partitions out(num_partitions);
  uint64_t records = 0;
  uint64_t bytes = 0;
  size_t next = 0;
  for (size_t p = 0; p < ds.num_partitions(); ++p) {
    for (const T& value : ds.partition(p)) {
      records += 1;
      bytes += ApproxShuffleBytes(value);
      out[next].push_back(value);
      next = (next + 1) % num_partitions;
    }
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kRepartition, records,
                                      bytes);
  return Dataset<T>::FromPartitions(ctx, std::move(out));
}

}  // namespace legacy

namespace {

using KV = std::pair<int64_t, int64_t>;
// The ST4ML-shaped shuffle key: (structure cell, time bin), hashed with
// PairHash. The legacy rescan hashes every record once PER TARGET, so
// composite keys are exactly where its O(parts x records) term bites.
using CellHourKey = std::pair<int64_t, int64_t>;

struct Measurement {
  double seconds = 0;
  uint64_t shuffle_records = 0;
  uint64_t shuffle_bytes = 0;
};

/// Times `op` (shuffle only — result comparison collects outside the timed
/// region) `reps` times on a fresh metrics slate; keeps the best run and
/// one run's metrics delta.
template <typename Op>
Measurement Measure(const std::shared_ptr<ExecutionContext>& ctx, int reps,
                    Op op) {
  Measurement m;
  for (int r = 0; r < reps; ++r) {
    ctx->ResetMetrics();
    Stopwatch watch;
    op();
    double secs = watch.ElapsedSeconds();
    if (r == 0 || secs < m.seconds) m.seconds = secs;
    m.shuffle_records = ctx->MetricsSnapshot()[Counter::kShuffleRecords];
    m.shuffle_bytes = ctx->MetricsSnapshot()[Counter::kShuffleBytes];
  }
  return m;
}

void EmitRow(const std::string& op, size_t records, size_t parts,
             const Measurement& bucketed, const Measurement& target_rescan,
             bool output_identical) {
  bool metrics_identical =
      bucketed.shuffle_records == target_rescan.shuffle_records &&
      bucketed.shuffle_bytes == target_rescan.shuffle_bytes;
  double speedup =
      bucketed.seconds > 0 ? target_rescan.seconds / bucketed.seconds : 0;
  std::cout << "{\"op\":\"" << op << "\""
            << ",\"records\":" << records << ",\"partitions\":" << parts
            << ",\"bucketed_seconds\":" << bucketed.seconds
            << ",\"legacy_seconds\":" << target_rescan.seconds
            << ",\"bucketed_records_per_sec\":"
            << (bucketed.seconds > 0 ? records / bucketed.seconds : 0)
            << ",\"legacy_records_per_sec\":"
            << (target_rescan.seconds > 0 ? records / target_rescan.seconds
                                          : 0)
            << ",\"speedup\":" << speedup
            << ",\"shuffle_records\":" << bucketed.shuffle_records
            << ",\"shuffle_bytes\":" << bucketed.shuffle_bytes
            << ",\"output_identical\":"
            << (output_identical ? "true" : "false")
            << ",\"metrics_identical\":"
            << (metrics_identical ? "true" : "false") << "}" << std::endl;
  if (!output_identical || !metrics_identical) {
    std::cerr << "MISMATCH: " << op << " records=" << records
              << " parts=" << parts << "\n";
    std::exit(1);
  }
}

std::vector<KV> MakePairs(size_t records, uint64_t seed) {
  Rng rng(seed);
  std::vector<KV> pairs;
  pairs.reserve(records);
  // ~4 values per key: the map-side combine shrinks but does not collapse
  // the shuffle, so the target side still sees a large record stream.
  int64_t key_space = static_cast<int64_t>(records / 4) + 1;
  for (size_t i = 0; i < records; ++i) {
    pairs.emplace_back(rng.UniformInt(0, key_space), rng.UniformInt(-5, 5));
  }
  return pairs;
}

std::vector<std::pair<CellHourKey, int64_t>> MakeCellHourPairs(
    size_t records, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<CellHourKey, int64_t>> pairs;
  pairs.reserve(records);
  // A 64x64 structure grid x 24 hourly bins, the raster shape of the
  // paper's flow-extraction case study (Fig. 9 / Table 9).
  constexpr int64_t kCells = 64 * 64;
  for (size_t i = 0; i < records; ++i) {
    pairs.emplace_back(
        CellHourKey(rng.UniformInt(0, kCells), rng.UniformInt(0, 24)),
        rng.UniformInt(0, 100));
  }
  return pairs;
}

std::vector<size_t> ParseList(const char* arg) {
  std::vector<size_t> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoul(item));
  return out;
}

}  // namespace

int Run(int argc, char** argv) {
  std::vector<size_t> record_counts = {100000, 1000000};
  std::vector<size_t> part_counts = {8, 64, 256};
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--records" && i + 1 < argc) {
      record_counts = ParseList(argv[++i]);
    } else if (flag == "--parts" && i + 1 < argc) {
      part_counts = ParseList(argv[++i]);
    } else if (flag == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: bench_shuffle [--records N,..] [--parts N,..] "
                   "[--reps R]\n";
      return 2;
    }
  }

  auto ctx = ExecutionContext::Create();
  for (size_t records : record_counts) {
    auto pairs = MakePairs(records, /*seed=*/records);
    auto cell_pairs = MakeCellHourPairs(records, /*seed=*/records + 1);
    for (size_t parts : part_counts) {
      auto data = Dataset<KV>::Parallelize(ctx, pairs, parts);
      auto cell_data = Dataset<std::pair<CellHourKey, int64_t>>::Parallelize(
          ctx, cell_pairs, parts);

      Dataset<KV> new_reduce, old_reduce;
      Measurement b = Measure(ctx, reps, [&] {
        auto reduced =
            TryReduceByKey<int64_t, int64_t>(data, std::plus<int64_t>());
        ST4ML_CHECK(reduced.ok());
        new_reduce = std::move(*reduced);
      });
      Measurement l = Measure(ctx, reps, [&] {
        old_reduce =
            legacy::ReduceByKey<int64_t, int64_t>(data, std::plus<int64_t>());
      });
      EmitRow("reduce_by_key", records, parts, b, l,
              std::move(new_reduce).Collect() ==
                  std::move(old_reduce).Collect());

      Dataset<std::pair<CellHourKey, int64_t>> new_cell, old_cell;
      b = Measure(ctx, reps, [&] {
        auto reduced = TryReduceByKey<CellHourKey, int64_t, std::plus<int64_t>,
                                      PairHash>(cell_data, std::plus<int64_t>());
        ST4ML_CHECK(reduced.ok());
        new_cell = std::move(*reduced);
      });
      l = Measure(ctx, reps, [&] {
        old_cell =
            legacy::ReduceByKey<CellHourKey, int64_t, std::plus<int64_t>,
                                PairHash>(cell_data, std::plus<int64_t>());
      });
      EmitRow("reduce_by_key_cell_hour", records, parts, b, l,
              std::move(new_cell).Collect() == std::move(old_cell).Collect());

      Dataset<std::pair<int64_t, std::vector<int64_t>>> new_group, old_group;
      b = Measure(ctx, reps, [&] {
        auto grouped = TryGroupByKey<int64_t, int64_t>(data);
        ST4ML_CHECK(grouped.ok());
        new_group = std::move(*grouped);
      });
      l = Measure(ctx, reps, [&] {
        old_group = legacy::GroupByKey<int64_t, int64_t>(data);
      });
      EmitRow("group_by_key", records, parts, b, l,
              std::move(new_group).Collect() ==
                  std::move(old_group).Collect());

      Dataset<std::pair<CellHourKey, std::vector<int64_t>>> new_cgroup,
          old_cgroup;
      b = Measure(ctx, reps, [&] {
        auto grouped = TryGroupByKey<CellHourKey, int64_t, PairHash>(cell_data);
        ST4ML_CHECK(grouped.ok());
        new_cgroup = std::move(*grouped);
      });
      l = Measure(ctx, reps, [&] {
        old_cgroup =
            legacy::GroupByKey<CellHourKey, int64_t, PairHash>(cell_data);
      });
      EmitRow("group_by_key_cell_hour", records, parts, b, l,
              std::move(new_cgroup).Collect() ==
                  std::move(old_cgroup).Collect());

      Dataset<KV> new_repart, old_repart;
      b = Measure(ctx, reps, [&] { new_repart = data.Repartition(parts * 2); });
      l = Measure(ctx, reps,
                  [&] { old_repart = legacy::Repartition(data, parts * 2); });
      EmitRow("repartition", records, parts, b, l,
              std::move(new_repart).Collect() ==
                  std::move(old_repart).Collect());
    }
  }
  return 0;
}

}  // namespace st4ml

int main(int argc, char** argv) { return st4ml::Run(argc, argv); }
