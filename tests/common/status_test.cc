#include "common/status.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/execution_context.h"
#include "selection/selector.h"
#include "storage/records.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_status_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> SomeEvents(int n) {
  std::vector<EventRecord> events;
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = 0.1 * i;
    r.y = 0.2 * i;
    r.time = 100 + i;
    r.attr = "e" + std::to_string(i);
    events.push_back(r);
  }
  return events;
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::Corruption("bad magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(s.message(), "bad magic");
  EXPECT_NE(s.ToString().find("bad magic"), std::string::npos);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  StatusOr<int> bad = Status::NotFound("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kNotFound);
}

TEST(StatusOrTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() -> Status { return Status::IOError("disk gone"); };
  auto outer = [&]() -> StatusOr<int> {
    ST4ML_RETURN_IF_ERROR(inner());
    return 1;
  };
  auto result = outer();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

TEST(StatusPipelineTest, MissingFileIsNotFound) {
  auto result = ReadStpqFile<EventRecord>("/definitely/not/a/file.stpq");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(StatusPipelineTest, BadMagicIsCorruption) {
  std::string dir = TempDir("magic");
  std::string path = dir + "/bad.stpq";
  std::ofstream(path, std::ios::binary) << "NOTAMAGICFILE_AT_ALL";
  auto result = ReadStpqFile<EventRecord>(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(StatusPipelineTest, TruncatedFileIsCorruption) {
  std::string dir = TempDir("trunc");
  std::string path = dir + "/part-00000.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(10)).ok());
  // Chop the tail off a valid file.
  auto size = fs::file_size(path);
  fs::resize_file(path, size - 7);
  auto result = ReadStpqFile<EventRecord>(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(StatusPipelineTest, WrongKindIsCorruption) {
  std::string dir = TempDir("kind");
  std::string path = dir + "/part-00000.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(3)).ok());
  // Events on disk, trajectories requested.
  auto result = ReadStpqFile<TrajRecord>(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

/// The satellite scenario: a corrupt STPQ file inside a selected directory
/// must surface as a Corruption status from the full load -> select
/// pipeline, not as a crash or a silently short result.
TEST(StatusPipelineTest, SelectorPropagatesCorruption) {
  std::string dir = TempDir("select");
  ASSERT_TRUE(WriteStpqFile(dir + "/part-00000.stpq", SomeEvents(8)).ok());
  ASSERT_TRUE(WriteStpqFile(dir + "/part-00001.stpq", SomeEvents(8)).ok());
  {
    // Corrupt the second file's body while keeping a plausible size.
    std::fstream f(dir + "/part-00001.stpq",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f << "STPQX";  // wrong magic tail
  }

  auto ctx = ExecutionContext::Create(2);
  STBox query(Mbr(-10, -10, 10, 10), Duration(0, 1000));
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(query));
  auto selected = selector.Select(dir);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), Status::Code::kCorruption);
}

TEST(StatusPipelineTest, SelectorOnEmptyDirIsNotFound) {
  std::string dir = TempDir("empty");
  auto ctx = ExecutionContext::Create(2);
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(STBox(Mbr(0, 0, 1, 1), Duration(0, 1))));
  auto selected = selector.Select(dir);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), Status::Code::kNotFound);
}

TEST(StatusPipelineTest, MetaPrunedSelectSkipsCorruptFileOutsideQuery) {
  // Pruning means a corrupt file whose envelope misses the query is never
  // opened — the pipeline stays Ok. This is a property of the on-disk
  // metadata, worth pinning.
  std::string dir = TempDir("pruned");
  ASSERT_TRUE(WriteStpqFile(dir + "/part-00000.stpq", SomeEvents(4)).ok());
  std::ofstream(dir + "/part-00001.stpq", std::ios::binary) << "garbage";

  StpqManifest meta;
  meta.parts.resize(2);
  meta.parts[0].file = "part-00000.stpq";
  meta.parts[0].box = STBox(Mbr(0, 0, 2, 2), Duration(100, 110));
  meta.parts[0].count = 4;
  meta.parts[1].file = "part-00001.stpq";
  meta.parts[1].box = STBox(Mbr(50, 50, 60, 60), Duration(5000, 6000));
  meta.parts[1].count = 1;
  ASSERT_TRUE(WriteStpqMeta(dir + "/index.meta", meta).ok());

  auto ctx = ExecutionContext::Create(2);
  STBox query(Mbr(-1, -1, 3, 3), Duration(0, 1000));
  Selector<EventRecord> selector(ctx, SelectQuery::FromBox(query));
  auto selected = selector.Select(dir, dir + "/index.meta");
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->Count(), 4u);

  // Widen the query to cover the corrupt file: now it must be opened, and
  // the corruption must propagate.
  Selector<EventRecord> wide(ctx, SelectQuery::FromBox(STBox(Mbr(-100, -100, 100, 100), Duration(0, 9000))));
  auto bad = wide.Select(dir, dir + "/index.meta");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace st4ml
