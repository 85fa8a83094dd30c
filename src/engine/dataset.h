#ifndef ST4ML_ENGINE_DATASET_H_
#define ST4ML_ENGINE_DATASET_H_

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/execution_context.h"

namespace st4ml {

/// Rough serialized size of a value, used for shuffle byte accounting.
/// Heap-owning standard containers are charged for their payload; everything
/// else is charged sizeof. An approximation — the benchmarks compare
/// strategies against each other, and both sides are measured the same way.
template <typename T>
size_t ApproxShuffleBytes(const T& value);

namespace internal {

template <typename T>
struct IsStdVector : std::false_type {};
template <typename U, typename A>
struct IsStdVector<std::vector<U, A>> : std::true_type {};

template <typename T>
struct IsStdPair : std::false_type {};
template <typename A, typename B>
struct IsStdPair<std::pair<A, B>> : std::true_type {};

}  // namespace internal

template <typename T>
size_t ApproxShuffleBytes(const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return sizeof(value) + value.size();
  } else if constexpr (internal::IsStdVector<T>::value) {
    size_t total = sizeof(value);
    for (const auto& element : value) total += ApproxShuffleBytes(element);
    return total;
  } else if constexpr (internal::IsStdPair<T>::value) {
    return ApproxShuffleBytes(value.first) + ApproxShuffleBytes(value.second);
  } else {
    return sizeof(value);
  }
}

/// An eagerly-evaluated, partitioned, immutable collection — the repo's
/// stand-in for an RDD. Operations fan out over partitions on the context's
/// worker pool and return a new Dataset; the partition data itself is shared
/// and copy-on-transform, so Dataset values are cheap to copy and cache.
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;

  Dataset() = default;

  /// Distributes `data` over `num_partitions` contiguous, even slices.
  static Dataset<T> Parallelize(std::shared_ptr<ExecutionContext> ctx,
                                std::vector<T> data, size_t num_partitions) {
    ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
    Partitions parts(num_partitions);
    size_t n = data.size();
    size_t base = n / num_partitions;
    size_t extra = n % num_partitions;
    size_t offset = 0;
    for (size_t p = 0; p < num_partitions; ++p) {
      size_t len = base + (p < extra ? 1 : 0);
      parts[p].assign(std::make_move_iterator(data.begin() + offset),
                      std::make_move_iterator(data.begin() + offset + len));
      offset += len;
    }
    return FromPartitions(std::move(ctx), std::move(parts));
  }

  /// Wraps explicit partitions (used by the shuffle paths and partitioners).
  static Dataset<T> FromPartitions(std::shared_ptr<ExecutionContext> ctx,
                                   Partitions parts) {
    Dataset<T> ds;
    ds.ctx_ = std::move(ctx);
    ds.parts_ = std::make_shared<const Partitions>(std::move(parts));
    return ds;
  }

  const std::shared_ptr<ExecutionContext>& context() const { return ctx_; }
  size_t num_partitions() const { return parts_ ? parts_->size() : 0; }
  const std::vector<T>& partition(size_t i) const { return (*parts_)[i]; }

  template <typename F>
  auto Map(F fn) const {
    using U = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    return MapPartitions("map", [fn](const std::vector<T>& part) {
      std::vector<U> out;
      out.reserve(part.size());
      for (const T& value : part) out.push_back(fn(value));
      return out;
    });
  }

  template <typename F>
  Dataset<T> Filter(F pred) const {
    return MapPartitions("filter", [pred](const std::vector<T>& part) {
      std::vector<T> out;
      for (const T& value : part) {
        if (pred(value)) out.push_back(value);
      }
      return out;
    });
  }

  /// `fn` maps one element to a container of output elements.
  template <typename F>
  auto FlatMap(F fn) const {
    return FlatMapNamed("flat_map", fn);
  }

  /// Named variant; the name labels the operation span when tracing is on.
  template <typename F>
  auto FlatMap(F fn, const std::string& stage_name) const {
    return FlatMapNamed(stage_name.c_str(), fn);
  }

  /// `fn` maps a whole partition to a vector of outputs; the workhorse every
  /// other transform lowers to. `name` labels the operation span.
  template <typename F>
  auto MapPartitions(F fn) const {
    return MapPartitions("map_partitions", fn);
  }

  template <typename F>
  auto MapPartitions(const char* name, F fn) const {
    using OutVec = std::decay_t<decltype(fn(std::declval<const std::vector<T>&>()))>;
    using U = typename OutVec::value_type;
    ST4ML_CHECK(parts_ != nullptr) << "transform on an empty Dataset";
    typename Dataset<U>::Partitions out(parts_->size());
    const Partitions& in = *parts_;
    ctx_->RunParallel(name, in.size(),
                      [&](size_t p) { out[p] = fn(in[p]); });
    return Dataset<U>::FromPartitions(ctx_, std::move(out));
  }

  std::vector<T> Collect() const& {
    std::vector<T> out;
    if (!parts_) return out;
    out.reserve(Count());
    for (const auto& part : *parts_) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  /// Collect on an expiring Dataset: when this handle is the sole owner of
  /// the partitions no other Dataset can observe them, so the elements are
  /// moved out instead of copied. Shared partitions still copy.
  std::vector<T> Collect() && {
    std::vector<T> out;
    if (!parts_) return out;
    if (parts_.use_count() != 1) return static_cast<const Dataset&>(*this).Collect();
    out.reserve(Count());
    auto& parts = const_cast<Partitions&>(*parts_);
    for (auto& part : parts) {
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }

  size_t Count() const {
    size_t total = 0;
    if (!parts_) return total;
    for (const auto& part : *parts_) total += part.size();
    return total;
  }

  /// Folds every partition with `seq_op`, then combines the per-partition
  /// results IN PARTITION ORDER with `comb_op` — deterministic by design.
  /// `zero` is copied exactly once per partition (the vector fill below);
  /// the partition tasks fold into their slot without further copies.
  template <typename Acc, typename SeqOp, typename CombOp>
  Acc Aggregate(Acc zero, SeqOp seq_op, CombOp comb_op) const {
    if (!parts_) return zero;
    std::vector<Acc> partials(parts_->size(), zero);
    const Partitions& in = *parts_;
    ctx_->RunParallel("aggregate", in.size(), [&](size_t p) {
      Acc acc = std::move(partials[p]);
      for (const T& value : in[p]) acc = seq_op(std::move(acc), value);
      partials[p] = std::move(acc);
    });
    Acc result = std::move(zero);
    for (Acc& partial : partials) {
      result = comb_op(std::move(result), std::move(partial));
    }
    return result;
  }

  /// Round-robin redistribution into `num_partitions` slices. A real shuffle:
  /// every record moves, and the metrics say so. The record at global scan
  /// index g lands at position g / num_partitions of target g %
  /// num_partitions — exactly the layout a serial round-robin deal produces —
  /// so target partitions fill in parallel, each reserving its capacity up
  /// front and touching only its own records; the shuffle byte accounting
  /// folds inside the same per-target tasks.
  Dataset<T> Repartition(size_t num_partitions) const& {
    return RepartitionImpl(num_partitions, /*may_move=*/false);
  }

  /// Repartition on an expiring Dataset: when this handle is the sole owner
  /// of the source partitions they are consumed by the shuffle, so records
  /// move instead of copy.
  Dataset<T> Repartition(size_t num_partitions) && {
    return RepartitionImpl(num_partitions, parts_ != nullptr &&
                                               parts_.use_count() == 1);
  }

 private:
  /// Adds a FlatMap under an explicit operation-span name. Private so the
  /// public surface stays the two FlatMap spellings above.
  template <typename F>
  auto FlatMapNamed(const char* name, F fn) const {
    using Container = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    using U = typename Container::value_type;
    return MapPartitions(name, [fn](const std::vector<T>& part) {
      std::vector<U> out;
      for (const T& value : part) {
        Container produced = fn(value);
        for (auto& element : produced) out.push_back(std::move(element));
      }
      return out;
    });
  }

  Dataset<T> RepartitionImpl(size_t num_partitions, bool may_move) const {
    ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
    ST4ML_CHECK(parts_ != nullptr) << "transform on an empty Dataset";
    const Partitions& in = *parts_;
    // Global scan index of each source partition's first record.
    std::vector<size_t> starts(in.size() + 1, 0);
    for (size_t p = 0; p < in.size(); ++p) {
      starts[p + 1] = starts[p] + in[p].size();
    }
    const size_t total = starts.back();
    Partitions out(num_partitions);
    ScopedSpan op(ctx_->tracer(), span_category::kOperation, "repartition");
    if (ctx_->num_workers() == 1) {
      // Sequential deal: with no parallelism to win, the streaming pass
      // beats the strided per-target pulls below on cache behavior.
      for (size_t t = 0; t < num_partitions; ++t) {
        out[t].reserve(total > t ? (total - t - 1) / num_partitions + 1 : 0);
      }
      uint64_t seq_bytes = 0;
      size_t next = 0;
      for (const auto& part : *parts_) {
        for (const T& value : part) {
          seq_bytes += ApproxShuffleBytes(value);
          if (may_move) {
            out[next].push_back(std::move(const_cast<T&>(value)));
          } else {
            out[next].push_back(value);
          }
          next = (next + 1) % num_partitions;
        }
      }
      internal::Counters(*ctx_).AddShuffle(ShuffleOp::kRepartition, total,
                                           seq_bytes);
      op.AddArg("records", total);
      op.AddArg("bytes", seq_bytes);
      return FromPartitions(ctx_, std::move(out));
    }
    // Per-target strided pulls: round-robin by global index, so record g
    // lands in partition g % num_partitions exactly as the sequential deal.
    std::vector<uint64_t> partial_bytes(num_partitions, 0);
    ctx_->RunParallel("repartition/scatter", num_partitions, [&](size_t target) {
      size_t count =
          total > target ? (total - target - 1) / num_partitions + 1 : 0;
      out[target].reserve(count);
      uint64_t bytes = 0;
      size_t p = 0;
      for (size_t g = target; g < total; g += num_partitions) {
        while (g >= starts[p + 1]) ++p;
        const T& value = in[p][g - starts[p]];
        bytes += ApproxShuffleBytes(value);
        if (may_move) {
          // Sole ownership of an expiring Dataset: no other handle can
          // observe the source partitions, so cannibalizing them is safe.
          out[target].push_back(std::move(const_cast<T&>(value)));
        } else {
          out[target].push_back(value);
        }
      }
      partial_bytes[target] = bytes;
    });
    uint64_t bytes = 0;
    for (uint64_t partial : partial_bytes) bytes += partial;
    internal::Counters(*ctx_).AddShuffle(ShuffleOp::kRepartition, total,
                                         bytes);
    op.AddArg("records", total);
    op.AddArg("bytes", bytes);
    return FromPartitions(ctx_, std::move(out));
  }

  std::shared_ptr<ExecutionContext> ctx_;
  std::shared_ptr<const Partitions> parts_;
};

}  // namespace st4ml

#endif  // ST4ML_ENGINE_DATASET_H_
