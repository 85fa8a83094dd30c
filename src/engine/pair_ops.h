#ifndef ST4ML_ENGINE_PAIR_OPS_H_
#define ST4ML_ENGINE_PAIR_OPS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "accel/hash_mix.h"
#include "common/status.h"
#include "engine/append_only_map.h"
#include "engine/dataset.h"

namespace st4ml {

/// Hash for std::pair keys (ReduceByKey over composite keys). Defined as
/// exactly HashCombine of the component hashes — the boost-style combine
/// this used to be was weak for low-entropy components (dense cell ids x
/// small hour bins skewed `hash % num_targets` bucketing); the SplitMix64
/// finalizer restores full avalanche (accel/hash_mix.h).
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    uint64_t h1 = static_cast<uint64_t>(std::hash<A>{}(p.first));
    uint64_t h2 = static_cast<uint64_t>(std::hash<B>{}(p.second));
    return static_cast<size_t>(HashCombine(h1, h2));
  }
};

namespace internal {

/// The pair shuffles require ordered + equality-comparable keys: their
/// output order is normalized by a final key sort, so the intermediate
/// aggregation is free to use the insertion-ordered AppendOnlyMap. A key
/// without `<` and `==` fails to compile against TryReduceByKey and
/// TryGroupByKey.
template <typename K>
constexpr bool kOrderedKey = requires(const K& a, const K& b) {
  a < b;
  a == b;
};

/// Sorts a keyed partition by key, making shuffle output deterministic
/// regardless of hash-map iteration order.
template <typename K, typename V>
void SortByKey(std::vector<std::pair<K, V>>* part) {
  std::sort(part->begin(), part->end(),
            [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
              return a.first < b.first;
            });
}

/// A map-side shuffle output: one source partition's records grouped by
/// target partition. `records` holds the partition's pairs permuted so that
/// all pairs bound for target t are contiguous at
/// [offsets[t], offsets[t+1]); within a bucket the source order is
/// preserved (the grouping is a stable counting sort). Each record's target
/// hash is computed exactly once, map-side.
template <typename K, typename V>
struct BucketedPartition {
  std::vector<std::pair<K, V>> records;
  std::vector<size_t> offsets;  // num_targets + 1 entries

  /// The bucket of pairs bound for `target`, as a [begin, end) range.
  std::pair<std::pair<K, V>*, std::pair<K, V>*> bucket(size_t target) {
    return {records.data() + offsets[target],
            records.data() + offsets[target + 1]};
  }
  size_t bucket_size(size_t target) const {
    return offsets[target + 1] - offsets[target];
  }
};

/// Stable counting sort of `input` into `num_targets` buckets keyed by
/// `Hash{}(key) % num_targets` — the map-side bucketing pass. Each record
/// is hashed exactly once and copied (or moved, when `input` is an rvalue)
/// exactly once into its bucket slot.
template <typename K, typename V, typename Hash, typename In>
BucketedPartition<K, V> BucketByTarget(In&& input, size_t num_targets) {
  constexpr bool kConsume = !std::is_lvalue_reference_v<In>;
  BucketedPartition<K, V> out;
  std::vector<uint32_t> targets(input.size());
  std::vector<size_t> counts(num_targets, 0);
  for (size_t i = 0; i < input.size(); ++i) {
    targets[i] = static_cast<uint32_t>(Hash{}(input[i].first) % num_targets);
    ++counts[targets[i]];
  }
  out.offsets.resize(num_targets + 1, 0);
  for (size_t t = 0; t < num_targets; ++t) {
    out.offsets[t + 1] = out.offsets[t] + counts[t];
  }
  std::vector<size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  out.records.resize(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    if constexpr (kConsume) {
      out.records[cursor[targets[i]]++] = std::move(input[i]);
    } else {
      out.records[cursor[targets[i]]++] = input[i];
    }
  }
  return out;
}

}  // namespace internal

/// Spark's reduceByKey: map-side combine inside each partition, then a hash
/// shuffle of the combined pairs, then a target-side reduce. Only the
/// combined pairs cross the "network", and the metrics account for exactly
/// those records.
///
/// The shuffle is bucketed map-side: each source partition combines its
/// pairs, counting-sorts them into per-target buckets in one pass (one hash
/// per record), and folds its shuffle-byte sum in the same task; each
/// target then merges only its own buckets — O(records) total instead of
/// the O(partitions x records) of a target-side rescan.
///
/// Determinism contract (identical to the seed's rescan shuffle): per key,
/// values are reduced in partition scan order map-side and in source
/// partition order target-side. Both sides aggregate in an insertion-ordered
/// AppendOnlyMap and only the final unique-key output is sorted.
///
/// Failure contract: a failing task (a throwing reducer, an injected engine
/// fault) surfaces as the returned Status; nothing throws.
template <typename K, typename V, typename Reduce,
          typename Hash = std::hash<K>>
  requires internal::kOrderedKey<K>
StatusOr<Dataset<std::pair<K, V>>> TryReduceByKey(
    const Dataset<std::pair<K, V>>& ds, Reduce reduce) {
  size_t n = ds.num_partitions();
  if (n == 0) return ds;
  const auto& ctx = ds.context();
  ScopedSpan op(ctx->tracer(), span_category::kOperation, "reduce_by_key");

  // Map side: combine, bucket by target, and account shuffle volume.
  std::vector<internal::BucketedPartition<K, V>> bucketed(n);
  std::vector<uint64_t> partial_records(n, 0);
  std::vector<uint64_t> partial_bytes(n, 0);
  auto map_task = [&](size_t p) -> Status {
    const auto& part = ds.partition(p);
    internal::AppendOnlyMap<K, V, Hash> acc(part.size());
    for (const auto& [key, value] : part) {
      acc.InsertOrCombine(key, value, reduce);
    }
    std::vector<std::pair<K, V>> combined = std::move(acc).TakeEntries();
    uint64_t bytes = 0;
    for (const auto& kv : combined) bytes += ApproxShuffleBytes(kv);
    partial_records[p] = combined.size();
    partial_bytes[p] = bytes;
    bucketed[p] = internal::BucketByTarget<K, V, Hash>(std::move(combined), n);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(ctx->TryRunParallel("reduce_by_key/map", n, map_task));

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (size_t p = 0; p < n; ++p) {
    records += partial_records[p];
    bytes += partial_bytes[p];
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kReduceByKey, records, bytes);
  op.AddArg("records", records);
  op.AddArg("bytes", bytes);

  // Target side: reduce over this target's buckets only, visiting source
  // partitions in ascending order. Buckets hold at most one pair per key
  // per source (the map side combined them), so each key's values combine
  // in source partition order — the same reduce sequence the rescan shuffle
  // produced — and the final key sort (unique keys) pins the output.
  typename Dataset<std::pair<K, V>>::Partitions out(n);
  auto merge_task = [&](size_t target) -> Status {
    size_t bound = 0;
    for (const auto& b : bucketed) bound += b.bucket_size(target);
    internal::AppendOnlyMap<K, V, Hash> acc(bound);
    for (size_t p = 0; p < n; ++p) {
      auto [it, end] = bucketed[p].bucket(target);
      for (; it != end; ++it) {
        acc.InsertOrCombine(it->first, it->second, reduce);
      }
    }
    out[target] = std::move(acc).TakeEntries();
    internal::SortByKey<K, V>(&out[target]);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(
      ctx->TryRunParallel("reduce_by_key/merge", n, merge_task));
  return Dataset<std::pair<K, V>>::FromPartitions(ctx, std::move(out));
}

/// Spark's groupByKey: EVERY record crosses the shuffle — the expensive
/// cousin ReduceByKey exists to avoid. Value order within a group follows
/// (partition, offset) order, so results are deterministic.
///
/// Bucketed the same way as ReduceByKey: the map side counting-sorts each
/// source partition by target (stable, so (partition, offset) order
/// survives) and sums shuffle bytes in the same pass; the target side
/// touches only its own buckets. Each key's values are gathered in
/// (partition, offset) order into one exactly-sized group, and the groups
/// are sorted by key.
template <typename K, typename V, typename Hash = std::hash<K>>
  requires internal::kOrderedKey<K>
StatusOr<Dataset<std::pair<K, std::vector<V>>>> TryGroupByKey(
    const Dataset<std::pair<K, V>>& ds) {
  size_t n = ds.num_partitions();
  const auto& ctx = ds.context();
  if (n == 0) return Dataset<std::pair<K, std::vector<V>>>();
  ScopedSpan op(ctx->tracer(), span_category::kOperation, "group_by_key");

  std::vector<internal::BucketedPartition<K, V>> bucketed(n);
  std::vector<uint64_t> partial_records(n, 0);
  std::vector<uint64_t> partial_bytes(n, 0);
  auto bucket_task = [&](size_t p) -> Status {
    const auto& part = ds.partition(p);
    uint64_t bytes = 0;
    for (const auto& kv : part) bytes += ApproxShuffleBytes(kv);
    partial_records[p] = part.size();
    partial_bytes[p] = bytes;
    bucketed[p] = internal::BucketByTarget<K, V, Hash>(part, n);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(
      ctx->TryRunParallel("group_by_key/bucket", n, bucket_task));

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (size_t p = 0; p < n; ++p) {
    records += partial_records[p];
    bytes += partial_bytes[p];
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kGroupByKey, records, bytes);
  op.AddArg("records", records);
  op.AddArg("bytes", bytes);

  typename Dataset<std::pair<K, std::vector<V>>>::Partitions out(n);
  auto merge_task = [&](size_t target) -> Status {
    auto& merged = out[target];
    // Two passes so every group vector is allocated exactly once at its
    // final size: the first sweep maps keys to dense indices (insertion
    // order) and counts group sizes, the second moves values into the
    // pre-reserved groups. Saves the ~log(group size) reallocations per
    // key that a single grow-as-you-go sweep pays.
    size_t bound = 0;
    for (const auto& b : bucketed) bound += b.bucket_size(target);
    internal::AppendOnlyMap<K, char, Hash> keys(bound);
    std::vector<uint32_t> rec_key(bound);
    std::vector<uint32_t> counts;
    counts.reserve(bound);
    size_t r = 0;
    for (size_t p = 0; p < n; ++p) {
      auto [it, end] = bucketed[p].bucket(target);
      for (; it != end; ++it) {
        size_t k = keys.GetIndex(it->first);
        if (k == counts.size()) counts.push_back(0);
        ++counts[k];
        rec_key[r++] = static_cast<uint32_t>(k);
      }
    }
    auto entries = std::move(keys).TakeEntries();
    merged.reserve(entries.size());
    for (size_t k = 0; k < entries.size(); ++k) {
      merged.emplace_back(std::move(entries[k].first), std::vector<V>());
      merged[k].second.reserve(counts[k]);
    }
    r = 0;
    for (size_t p = 0; p < n; ++p) {
      auto [it, end] = bucketed[p].bucket(target);
      for (; it != end; ++it) {
        merged[rec_key[r++]].second.push_back(std::move(it->second));
      }
    }
    internal::SortByKey<K, std::vector<V>>(&merged);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(
      ctx->TryRunParallel("group_by_key/merge", n, merge_task));
  return Dataset<std::pair<K, std::vector<V>>>::FromPartitions(ctx,
                                                               std::move(out));
}

}  // namespace st4ml

#endif  // ST4ML_ENGINE_PAIR_OPS_H_
