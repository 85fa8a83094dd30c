#include "engine/dataset.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/broadcast.h"
#include "engine/execution_context.h"

namespace st4ml {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DatasetTest, ParallelizeSlicesEvenlyAndCollectsInOrder) {
  auto ctx = ExecutionContext::Create(4);
  auto data = Dataset<int>::Parallelize(ctx, Iota(10), 3);
  EXPECT_EQ(data.num_partitions(), 3u);
  EXPECT_EQ(data.Count(), 10u);
  EXPECT_EQ(data.Collect(), Iota(10));
}

TEST(DatasetTest, MapFilterFlatMap) {
  auto ctx = ExecutionContext::Create(2);
  auto data = Dataset<int>::Parallelize(ctx, Iota(100), 4);

  auto doubled = data.Map([](int v) { return v * 2; });
  EXPECT_EQ(doubled.Collect()[7], 14);

  auto evens = data.Filter([](int v) { return v % 2 == 0; });
  EXPECT_EQ(evens.Count(), 50u);

  auto repeated = data.FlatMap([](int v) {
    return std::vector<int>(static_cast<size_t>(v % 3), v);
  });
  size_t expected = 0;
  for (int v : Iota(100)) expected += static_cast<size_t>(v % 3);
  EXPECT_EQ(repeated.Count(), expected);
}

TEST(DatasetTest, MapPartitionsSeesWholeSlices) {
  auto ctx = ExecutionContext::Create(2);
  auto data = Dataset<int>::Parallelize(ctx, Iota(10), 2);
  auto sums = data.MapPartitions([](const std::vector<int>& part) {
    return std::vector<int>{std::accumulate(part.begin(), part.end(), 0)};
  });
  std::vector<int> collected = sums.Collect();
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected[0] + collected[1], 45);
}

TEST(DatasetTest, AggregateIsDeterministic) {
  auto ctx = ExecutionContext::Create(3);
  auto data = Dataset<int>::Parallelize(ctx, Iota(1000), 7);
  for (int run = 0; run < 3; ++run) {
    long total = data.Aggregate(
        0L, [](long acc, int v) { return acc + v; },
        [](long a, long b) { return a + b; });
    EXPECT_EQ(total, 999L * 1000 / 2);
  }
}

TEST(DatasetTest, RepartitionPreservesElements) {
  auto ctx = ExecutionContext::Create(2);
  auto data = Dataset<int>::Parallelize(ctx, Iota(37), 2);
  auto wide = data.Repartition(8);
  EXPECT_EQ(wide.num_partitions(), 8u);
  std::vector<int> collected = wide.Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, Iota(37));
}

TEST(DatasetTest, RepartitionCountsShuffleMetrics) {
  auto ctx = ExecutionContext::Create(2);
  ctx->ResetMetrics();
  auto data = Dataset<int>::Parallelize(ctx, Iota(64), 2);
  data.Repartition(4).Count();
  EXPECT_GT(ctx->MetricsSnapshot()[Counter::kShuffleRecords], 0u);
  EXPECT_GT(ctx->MetricsSnapshot()[Counter::kShuffleBytes], 0u);
}

TEST(BroadcastTest, SharedValueAndCounter) {
  auto ctx = ExecutionContext::Create(2);
  ctx->ResetMetrics();
  Broadcast<std::string> b = MakeBroadcast(ctx, std::string("shared"));
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b.value(), "shared");
  EXPECT_EQ(ctx->MetricsSnapshot()[Counter::kBroadcasts], 1u);

  auto data = Dataset<int>::Parallelize(ctx, Iota(10), 2);
  auto tagged = data.Map([b](int v) {
    return b.value() + ":" + std::to_string(v);
  });
  EXPECT_EQ(tagged.Collect()[3], "shared:3");
}

}  // namespace
}  // namespace st4ml
