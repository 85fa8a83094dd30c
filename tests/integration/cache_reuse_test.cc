// Integration test for cache-backed reuse: one pipeline runs the same
// Selection twice. The second Select must be served from the DatasetCache:
// stpq/read io bytes and cache misses must NOT grow on the second pass,
// while cache hits must.

#include <gtest/gtest.h>

#include "common/property.h"
#include "st4ml.h"

namespace st4ml {
namespace {

TEST(CacheReuseTest, SecondPassIsServedFromCache) {
  testing::CacheWorkload w;
  w.seed = 77;
  w.num_records = 400;
  w.grid_t = 2;
  w.grid_s = 2;
  w.query = STBox(Mbr(0, 0, 100, 100), Duration(0, 100000));
  testing::StagedWorkload staged(w);

  auto ctx = ExecutionContext::Create(4);
  DatasetCache::Options cache_options;
  cache_options.budget_bytes = DatasetCache::kUnbounded;
  ctx->ConfigureCache(std::move(cache_options));
  Pipeline pipeline(ctx, "cache_reuse");

  // ---- Selection, cold pass: every surviving file is read from disk.
  Selector<EventRecord> selector_a(ctx, SelectQuery::FromBox(w.query));
  auto first = pipeline.Run("selection", [&] {
    return selector_a.Select(staged.dir(), staged.meta());
  });
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  MetricsSnapshot cold = ctx->MetricsSnapshot();
  ASSERT_GT(cold[Counter::kStpqBytesRead], 0u);
  ASSERT_GT(cold[Counter::kStpqFilesRead], 0u);
  ASSERT_GT(cold[Counter::kCacheMisses], 0u);
  ASSERT_EQ(cold[Counter::kCacheHits], 0u);

  // ---- Selection, warm pass: an INDEPENDENT selector over the same data
  // (interned file keys are shared) must not touch the files again.
  Selector<EventRecord> selector_b(ctx, SelectQuery::FromBox(w.query));
  auto second = pipeline.Run("selection", [&] {
    return selector_b.Select(staged.dir(), staged.meta());
  });
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  MetricsSnapshot warm = ctx->MetricsSnapshot();
  EXPECT_EQ(warm[Counter::kStpqBytesRead], cold[Counter::kStpqBytesRead])
      << "second Select re-read file bytes instead of hitting the cache";
  EXPECT_EQ(warm[Counter::kStpqFilesRead], cold[Counter::kStpqFilesRead]);
  EXPECT_EQ(warm[Counter::kCacheMisses], cold[Counter::kCacheMisses])
      << "second Select missed the cache";
  EXPECT_GT(warm[Counter::kCacheHits], 0u);
  // Both passes scanned (consulted) the same partitions and selected the
  // same records — the cache changed the I/O, not the answer.
  EXPECT_EQ(warm[Counter::kPartitionsScanned],
            2 * cold[Counter::kPartitionsScanned]);
  std::string bytes_a, bytes_b;
  for (const EventRecord& r : first->Collect()) {
    testing::AppendRecordBytes(&bytes_a, r);
  }
  for (const EventRecord& r : second->Collect()) {
    testing::AppendRecordBytes(&bytes_b, r);
  }
  EXPECT_EQ(bytes_a, bytes_b);

  pipeline.Finish();
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
}

}  // namespace
}  // namespace st4ml
