// Differential property: a SelectIngest over a streamed directory — records
// appended one by one, an arbitrary prefix compacted, the tail still staged
// in the WAL — must be byte-identical (as an unordered multiset of records)
// to a batch BuildOnDiskIndex + Select over the same events. 20 seeds vary
// the record count, bucket width, seal threshold, and how much of the
// stream is compacted (including none and all).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/property.h"
#include "ingest/ingestor.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

// Canonical unordered serialization: sort by every field, then concatenate
// the byte-exact record encodings. Two record sets agree iff these match.
std::string CanonicalBytes(std::vector<EventRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const EventRecord& a, const EventRecord& b) {
              if (a.id != b.id) return a.id < b.id;
              if (a.time != b.time) return a.time < b.time;
              if (a.x != b.x) return a.x < b.x;
              if (a.y != b.y) return a.y < b.y;
              return a.attr < b.attr;
            });
  std::string bytes;
  for (const EventRecord& r : records) {
    testing::AppendRecordBytes(&bytes, r);
  }
  return bytes;
}

std::vector<EventRecord> SelectAllBatch(const std::string& dir,
                                        const std::string& meta) {
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(
      ctx, SelectQuery::FromBox(
               STBox(Mbr(-1000, -1000, 1000, 1000), Duration(-1, 200000))));
  auto selected = selector.Select(dir, meta);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return selected->Collect();
}

std::vector<EventRecord> SelectAllStreamed(const std::string& dir) {
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(
      ctx, SelectQuery::FromBox(
               STBox(Mbr(-1000, -1000, 1000, 1000), Duration(-1, 200000))));
  auto selected = selector.SelectIngest(dir);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return selected->Collect();
}

TEST(IngestPropertyTest, StreamedSelectMatchesBatchIngestAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 104729 + 17);
    int n = static_cast<int>(rng.UniformInt(1, 400));
    std::vector<EventRecord> events = testing::RandomWorkloadEvents(n, seed);

    std::string base = (fs::temp_directory_path() /
                        ("st4ml_ingest_prop_" + std::to_string(seed) + "_" +
                         std::to_string(::getpid())))
                           .string();
    std::string batch_dir = base + "/batch";
    std::string stream_dir = base + "/stream";
    fs::remove_all(base);
    fs::create_directories(batch_dir);

    // Reference: the batch pipeline every earlier PR pinned.
    {
      auto ctx = ExecutionContext::Create(2);
      auto data = Dataset<EventRecord>::Parallelize(ctx, events, 4);
      TSTRPartitioner partitioner(2, 2);
      Status built = BuildOnDiskIndex(data, &partitioner, batch_dir,
                                      batch_dir + "/index.meta");
      ASSERT_TRUE(built.ok()) << "seed " << seed << ": " << built.ToString();
    }
    std::string expected =
        CanonicalBytes(SelectAllBatch(batch_dir, batch_dir + "/index.meta"));

    // Streamed: append one-record batches, compact an arbitrary prefix,
    // leave the tail staged. The merged view must already match, mid-stream.
    IngestorOptions options;
    options.bucket_seconds = rng.UniformInt(50, 40000);
    options.seal_records = static_cast<uint64_t>(rng.UniformInt(1, 64));
    options.start_compactor = false;
    auto ingestor = Ingestor::Open(stream_dir, options);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();

    size_t compact_at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(events.size())));
    for (size_t i = 0; i < events.size(); ++i) {
      ASSERT_TRUE((*ingestor)->AppendBatch({events[i]}).ok())
          << "seed " << seed;
      if (i + 1 == compact_at) {
        ASSERT_TRUE((*ingestor)->CompactNow().ok()) << "seed " << seed;
      }
    }
    EXPECT_EQ(CanonicalBytes(SelectAllStreamed(stream_dir)), expected)
        << "seed " << seed << ": merged staged+compacted view diverged "
        << "from batch ingest (compacted prefix " << compact_at << " of "
        << events.size() << ")";

    // After a full flush the all-compacted view must STILL match.
    ASSERT_TRUE((*ingestor)->Flush().ok()) << "seed " << seed;
    EXPECT_EQ(CanonicalBytes(SelectAllStreamed(stream_dir)), expected)
        << "seed " << seed << ": fully compacted view diverged from batch";

    // And so must a recovery replay: crash (no seal) + reopen.
    ingestor->reset();
    auto reopened = Ingestor::Open(stream_dir, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(CanonicalBytes(SelectAllStreamed(stream_dir)), expected)
        << "seed " << seed << ": post-recovery view diverged from batch";

    std::error_code ec;
    fs::remove_all(base, ec);
  }
}

}  // namespace
}  // namespace st4ml
