#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "engine/dataset.h"
#include "engine/execution_context.h"
#include "engine/pair_ops.h"
#include "partition/st_partition_ops.h"
#include "storage/records.h"

namespace st4ml {
namespace {

// The global injector outlives every test; leave it disarmed for the next one.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { GlobalFaultInjector().Reset(); }
};

TEST_F(FaultToleranceTest, TryRunParallelReturnsFirstStatusError) {
  auto ctx = ExecutionContext::Create(4);
  Status status = ctx->TryRunParallel(100, [](size_t i) {
    if (i == 17) return Status::IOError("index 17 is cursed");
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  EXPECT_NE(status.message().find("index 17"), std::string::npos);
  EXPECT_GE(ctx->MetricsSnapshot()[Counter::kTasksFailed], 1u);
}

TEST_F(FaultToleranceTest, FailureStopsFurtherWork) {
  // After the failing index every un-started index is dropped: with a
  // single worker the claim order is sequential, so nothing past the
  // failure runs at all.
  auto ctx = ExecutionContext::Create(1);
  std::atomic<size_t> ran{0};
  Status status = ctx->TryRunParallel(1000, [&](size_t i) {
    ran.fetch_add(1);
    if (i == 0) return Status::Internal("fail fast");
    return Status::Ok();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_LT(ran.load(), 1000u);
}

TEST_F(FaultToleranceTest, ThrowingTaskBecomesInternalStatus) {
  auto ctx = ExecutionContext::Create(4);
  Status status = ctx->TryRunParallel(8, [](size_t i) -> Status {
    if (i == 3) throw std::runtime_error("boom");
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST_F(FaultToleranceTest, ThrownStatusErrorKeepsItsCode) {
  auto ctx = ExecutionContext::Create(4);
  Status status = ctx->TryRunParallel(8, [](size_t i) -> Status {
    if (i == 5) throw StatusError(Status::Corruption("bad bytes"));
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

TEST_F(FaultToleranceTest, RunParallelRethrowsOriginalExceptionOnDriver) {
  auto ctx = ExecutionContext::Create(4);
  EXPECT_THROW(ctx->RunParallel(16,
                                [](size_t i) {
                                  if (i == 9) {
                                    throw std::out_of_range("nine");
                                  }
                                }),
               std::out_of_range);
}

TEST_F(FaultToleranceTest, ThrowingDatasetMapSurfacesWithoutTerminate) {
  auto ctx = ExecutionContext::Create(4);
  auto data = Dataset<int>::Parallelize(ctx, {1, 2, 3, 4, 5, 6, 7, 8}, 4);
  EXPECT_THROW(data.Map([](const int& v) -> int {
                 if (v == 6) throw std::runtime_error("map blew up");
                 return v * 2;
               }),
               std::runtime_error);
}

TEST_F(FaultToleranceTest, ContextSurvivesFailedJobs) {
  // A failed job must not poison the pool: the next job on the same
  // context runs every index.
  auto ctx = ExecutionContext::Create(4);
  ASSERT_FALSE(
      ctx->TryRunParallel(32, [](size_t) {
           return Status::IOError("down");
         }).ok());
  std::atomic<size_t> ran{0};
  Status status = ctx->TryRunParallel(64, [&](size_t) {
    ran.fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(ran.load(), 64u);
}

TEST_F(FaultToleranceTest, RepeatedFailuresNeverDeadlock) {
  // The regression this PR fixes: a failed job used to leave done < count
  // and the driver blocked forever (when the escaping exception didn't
  // terminate the process first). Alternate failing and clean jobs enough
  // times that any lost-wakeup or missed-accounting bug would hang; under
  // TSan in CI this also proves the error path is race-free.
  auto ctx = ExecutionContext::Create(4);
  for (int round = 0; round < 50; ++round) {
    Status failed = ctx->TryRunParallel(97, [&](size_t i) {
      if (i % 13 == static_cast<size_t>(round % 13)) {
        return Status::IOError("transient");
      }
      return Status::Ok();
    });
    EXPECT_FALSE(failed.ok());
    std::atomic<size_t> ran{0};
    ASSERT_TRUE(ctx->TryRunParallel(41, [&](size_t) {
                     ran.fetch_add(1);
                     return Status::Ok();
                   }).ok());
    EXPECT_EQ(ran.load(), 41u);
  }
}

TEST_F(FaultToleranceTest, EmptyJobIsOk) {
  auto ctx = ExecutionContext::Create(2);
  EXPECT_TRUE(ctx->TryRunParallel(0, [](size_t) {
                   return Status::Internal("never called");
                 }).ok());
}

TEST_F(FaultToleranceTest, TryReduceByKeyPropagatesThrowingReducer) {
  auto ctx = ExecutionContext::Create(4);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 100; ++i) pairs.emplace_back(i % 5, 1);
  auto data = Dataset<std::pair<int, int>>::Parallelize(ctx, pairs, 4);
  auto result = TryReduceByKey<int, int>(data, [](int, int) -> int {
    throw std::runtime_error("reducer down");
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInternal);
}

TEST_F(FaultToleranceTest, TrySTPartitionRejectsNullPartitioner) {
  auto ctx = ExecutionContext::Create(2);
  auto data = Dataset<EventRecord>::Parallelize(
      ctx, std::vector<EventRecord>(10), 2);
  auto result = TrySTPartition(
      data, nullptr, [](const EventRecord& r) { return r.ComputeSTBox(); },
      [](const EventRecord& r) { return static_cast<uint64_t>(r.id); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(FaultToleranceTest, InjectedTaskFaultFailsJobWithIOError) {
  auto ctx = ExecutionContext::Create(4);
  GlobalFaultInjector().FailNext(fault_site::kTaskRun, 1);
  Status status =
      ctx->TryRunParallel(50, [](size_t) { return Status::Ok(); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
  EXPECT_GE(ctx->MetricsSnapshot()[Counter::kFaultsInjected], 1u);
  // The injector is spent; the same context runs clean again.
  EXPECT_TRUE(
      ctx->TryRunParallel(50, [](size_t) { return Status::Ok(); }).ok());
}

}  // namespace
}  // namespace st4ml
