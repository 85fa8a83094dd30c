// Pins the shuffle determinism contract the bucketed map-side shuffle must
// honor: ReduceByKey / GroupByKey / Repartition results AND the
// EngineMetrics shuffle accounting are byte-identical regardless of how
// many workers execute the job or how many partitions the data is split
// into (for metrics, per fixed partition count).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/dataset.h"
#include "engine/execution_context.h"
#include "engine/pair_ops.h"

namespace st4ml {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 8};
constexpr size_t kPartitionCounts[] = {1, 3, 8, 64};

std::vector<std::pair<int64_t, int64_t>> RandomPairs(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(n);
  for (int i = 0; i < n; ++i) {
    pairs.emplace_back(rng.UniformInt(0, 200), rng.UniformInt(-50, 50));
  }
  return pairs;
}

struct ShuffleRun {
  uint64_t records = 0;
  uint64_t bytes = 0;
};

/// Runs `op` on a fresh context and returns its shuffle metrics delta.
template <typename Op>
ShuffleRun Metered(int workers, Op op) {
  auto ctx = ExecutionContext::Create(workers);
  ctx->ResetMetrics();
  op(ctx);
  const MetricsSnapshot snap = ctx->MetricsSnapshot();
  return {snap[Counter::kShuffleRecords], snap[Counter::kShuffleBytes]};
}

TEST(ShuffleInvarianceTest, ReduceByKeyIdenticalAcrossWorkersAndPartitions) {
  auto pairs = RandomPairs(20000, 41);
  for (size_t parts : kPartitionCounts) {
    std::vector<std::pair<int64_t, int64_t>> reference;
    ShuffleRun reference_run;
    for (int workers : kWorkerCounts) {
      std::vector<std::pair<int64_t, int64_t>> collected;
      ShuffleRun run = Metered(workers, [&](auto ctx) {
        auto data = Dataset<std::pair<int64_t, int64_t>>::Parallelize(
            ctx, pairs, parts);
        auto reduced =
            TryReduceByKey<int64_t, int64_t>(data, std::plus<int64_t>());
        ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
        collected = reduced->Collect();
      });
      if (workers == kWorkerCounts[0]) {
        reference = collected;
        reference_run = run;
        continue;
      }
      EXPECT_EQ(collected, reference)
          << "workers=" << workers << " parts=" << parts;
      EXPECT_EQ(run.records, reference_run.records);
      EXPECT_EQ(run.bytes, reference_run.bytes);
    }
  }
}

TEST(ShuffleInvarianceTest,
     ReduceByKeyNonCommutativeReduceOrderIsDeterministic) {
  // String concatenation is order-sensitive; identical output across worker
  // counts proves the per-key reduce sequence itself is pinned, not just
  // the key set.
  Rng rng(97);
  std::vector<std::pair<int64_t, std::string>> pairs;
  for (int i = 0; i < 3000; ++i) {
    pairs.emplace_back(rng.UniformInt(0, 30), std::to_string(i));
  }
  auto concat = [](const std::string& a, const std::string& b) {
    return a + "," + b;
  };
  for (size_t parts : kPartitionCounts) {
    std::vector<std::pair<int64_t, std::string>> reference;
    for (int workers : kWorkerCounts) {
      auto ctx = ExecutionContext::Create(workers);
      auto data = Dataset<std::pair<int64_t, std::string>>::Parallelize(
          ctx, pairs, parts);
      auto reduced = TryReduceByKey<int64_t, std::string>(data, concat);
      ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
      auto collected = reduced->Collect();
      if (workers == kWorkerCounts[0]) {
        reference = collected;
        continue;
      }
      EXPECT_EQ(collected, reference)
          << "workers=" << workers << " parts=" << parts;
    }
  }
}

TEST(ShuffleInvarianceTest, GroupByKeyIdenticalAcrossWorkersAndPartitions) {
  auto pairs = RandomPairs(20000, 43);
  for (size_t parts : kPartitionCounts) {
    std::vector<std::pair<int64_t, std::vector<int64_t>>> reference;
    ShuffleRun reference_run;
    for (int workers : kWorkerCounts) {
      std::vector<std::pair<int64_t, std::vector<int64_t>>> collected;
      ShuffleRun run = Metered(workers, [&](auto ctx) {
        auto data = Dataset<std::pair<int64_t, int64_t>>::Parallelize(
            ctx, pairs, parts);
        auto grouped = TryGroupByKey<int64_t, int64_t>(data);
        ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
        collected = grouped->Collect();
      });
      if (workers == kWorkerCounts[0]) {
        reference = collected;
        reference_run = run;
        continue;
      }
      EXPECT_EQ(collected, reference)
          << "workers=" << workers << " parts=" << parts;
      EXPECT_EQ(run.records, reference_run.records);
      EXPECT_EQ(run.bytes, reference_run.bytes);
    }
    // GroupByKey shuffles every record, whatever the layout.
    EXPECT_EQ(reference_run.records, pairs.size()) << "parts=" << parts;
  }
}

TEST(ShuffleInvarianceTest, CompositeKeysViaPairHash) {
  using Key = std::pair<int64_t, int64_t>;
  Rng rng(59);
  std::vector<std::pair<Key, int64_t>> pairs;
  for (int i = 0; i < 10000; ++i) {
    pairs.emplace_back(Key(rng.UniformInt(0, 20), rng.UniformInt(0, 20)),
                       rng.UniformInt(-5, 5));
  }
  for (size_t parts : kPartitionCounts) {
    std::vector<std::pair<Key, int64_t>> reference;
    for (int workers : kWorkerCounts) {
      auto ctx = ExecutionContext::Create(workers);
      auto data =
          Dataset<std::pair<Key, int64_t>>::Parallelize(ctx, pairs, parts);
      auto reduced = TryReduceByKey<Key, int64_t, std::plus<int64_t>, PairHash>(
          data, std::plus<int64_t>());
      ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
      auto collected = reduced->Collect();
      if (workers == kWorkerCounts[0]) {
        reference = collected;
        continue;
      }
      EXPECT_EQ(collected, reference)
          << "workers=" << workers << " parts=" << parts;
    }
  }
}

TEST(ShuffleInvarianceTest, RepartitionLayoutAndMetricsAreInvariant) {
  Rng rng(61);
  std::vector<int64_t> values;
  for (int i = 0; i < 9973; ++i) values.push_back(rng.UniformInt(0, 1 << 20));
  for (size_t src_parts : {size_t{1}, size_t{5}}) {
    for (size_t dst_parts : kPartitionCounts) {
      // Per-partition contents must match, not just the collected union:
      // the round-robin layout is part of the contract.
      std::vector<std::vector<int64_t>> reference;
      ShuffleRun reference_run;
      for (int workers : kWorkerCounts) {
        std::vector<std::vector<int64_t>> layout;
        ShuffleRun run = Metered(workers, [&](auto ctx) {
          auto data = Dataset<int64_t>::Parallelize(ctx, values, src_parts);
          auto wide = data.Repartition(dst_parts);
          for (size_t p = 0; p < wide.num_partitions(); ++p) {
            layout.push_back(wide.partition(p));
          }
        });
        if (workers == kWorkerCounts[0]) {
          reference = layout;
          reference_run = run;
          continue;
        }
        EXPECT_EQ(layout, reference)
            << "workers=" << workers << " src=" << src_parts
            << " dst=" << dst_parts;
        EXPECT_EQ(run.records, reference_run.records);
        EXPECT_EQ(run.bytes, reference_run.bytes);
      }
      EXPECT_EQ(reference_run.records, values.size());
    }
  }
}

TEST(ShuffleInvarianceTest, RvalueRepartitionMovesMatchLvalueCopies) {
  Rng rng(67);
  std::vector<std::string> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back("record-" + std::to_string(rng.UniformInt(0, 1 << 16)));
  }
  auto ctx = ExecutionContext::Create(4);
  auto copied =
      Dataset<std::string>::Parallelize(ctx, values, 3).Repartition(7);
  auto via_lvalue = Dataset<std::string>::Parallelize(ctx, values, 3);
  auto from_lvalue = via_lvalue.Repartition(7);
  for (size_t p = 0; p < 7; ++p) {
    EXPECT_EQ(copied.partition(p), from_lvalue.partition(p)) << "p=" << p;
  }
  // The lvalue source must survive its Repartition untouched.
  EXPECT_EQ(via_lvalue.Collect().size(), values.size());
  std::vector<std::string> survived = via_lvalue.Collect();
  std::vector<std::string> original = values;
  std::sort(survived.begin(), survived.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(survived, original);
}

TEST(ShuffleInvarianceTest, RvalueCollectMovesMatchLvalueCopies) {
  auto pairs = RandomPairs(5000, 71);
  auto ctx = ExecutionContext::Create(4);
  auto data =
      Dataset<std::pair<int64_t, int64_t>>::Parallelize(ctx, pairs, 6);
  auto grouped = TryGroupByKey<int64_t, int64_t>(data);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  auto copied = grouped->Collect();  // lvalue: copies
  auto moved =
      std::move(*grouped).Collect();  // rvalue + sole owner: moves
  EXPECT_EQ(copied, moved);
}

}  // namespace
}  // namespace st4ml
