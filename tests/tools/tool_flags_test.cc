// Regression tests for the two CLI flag-parsing bugfixes in this PR:
//  - strict GetInt: `--limit=10x` / `--cache-budget=abc` must be a named
//    usage error (CheckIntFlags fails), never a silently truncated 10 or 0;
//  - SelectQueryFromFlags range-checks `--time` BEFORE the int64 cast:
//    `--time=0,1e300` (UB if cast) and fractional endpoints are usage
//    errors, in-range integral endpoints still parse.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tool_flags.h"

namespace st4ml {
namespace tools {
namespace {

// Builds a Flags over the given argument strings (argv[0] is the tool name
// and is skipped by the parser, same as in main()).
class ArgvFlags {
 public:
  explicit ArgvFlags(std::vector<std::string> args) : storage_(std::move(args)) {
    argv_.push_back(const_cast<char*>("test_tool"));
    for (std::string& arg : storage_) {
      argv_.push_back(const_cast<char*>(arg.c_str()));
    }
    flags_ = std::make_unique<Flags>(static_cast<int>(argv_.size()),
                                     argv_.data());
  }
  const Flags& get() const { return *flags_; }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
  std::unique_ptr<Flags> flags_;
};

TEST(FlagsTest, ValidIntegersParse) {
  ArgvFlags args({"--limit=10", "--cache-budget=-1", "--workers=8"});
  EXPECT_EQ(args.get().GetInt("limit", 0), 10);
  EXPECT_EQ(args.get().GetInt("cache-budget", 0), -1);
  EXPECT_EQ(args.get().GetInt("workers", 0), 8);
  EXPECT_TRUE(args.get().ok());
  EXPECT_TRUE(CheckIntFlags(args.get(), "test_tool"));
}

TEST(FlagsTest, TrailingGarbageIsANamedUsageError) {
  ArgvFlags args({"--limit=10x"});
  // The old lax strtoll would happily return 10 here; the strict parser
  // must keep the default AND record the error by flag name.
  EXPECT_EQ(args.get().GetInt("limit", 100), 100);
  EXPECT_FALSE(args.get().ok());
  ASSERT_EQ(args.get().errors().size(), 1u);
  EXPECT_NE(args.get().errors()[0].find("--limit=10x"), std::string::npos);
  EXPECT_FALSE(CheckIntFlags(args.get(), "test_tool"));
}

TEST(FlagsTest, NonNumericValueIsAUsageError) {
  ArgvFlags args({"--cache-budget=abc"});
  EXPECT_EQ(args.get().GetInt("cache-budget", 0), 0);
  EXPECT_FALSE(args.get().ok());
  ASSERT_EQ(args.get().errors().size(), 1u);
  EXPECT_NE(args.get().errors()[0].find("--cache-budget=abc"),
            std::string::npos);
}

TEST(FlagsTest, OutOfRangeIntegerIsAUsageError) {
  ArgvFlags args({"--limit=99999999999999999999999999"});
  args.get().GetInt("limit", 7);
  EXPECT_FALSE(args.get().ok());
}

TEST(FlagsTest, AbsentFlagKeepsDefaultWithoutError) {
  ArgvFlags args({});
  EXPECT_EQ(args.get().GetInt("limit", 42), 42);
  EXPECT_TRUE(args.get().ok());
}

TEST(FlagsTest, MultipleBadFlagsAllReported) {
  ArgvFlags args({"--limit=1z", "--seal-records=x"});
  args.get().GetInt("limit", 0);
  args.get().GetInt("seal-records", 0);
  EXPECT_EQ(args.get().errors().size(), 2u);
}

TEST(FlagsTest, HasMatchesBareAndValuedSpellings) {
  ArgvFlags args({"--follow", "--count-only", "--limit=3"});
  EXPECT_TRUE(args.get().Has("follow"));
  EXPECT_TRUE(args.get().Has("count-only"));
  EXPECT_TRUE(args.get().Has("limit"));
  EXPECT_FALSE(args.get().Has("flush"));
}

TEST(SelectQueryFromFlagsTest, IntegralTimeEndpointsParse) {
  ArgvFlags args(
      {"--mbr=0,0,10,10", "--time=1577836800,1585612800", "--limit=5"});
  SelectQuery query;
  ASSERT_TRUE(SelectQueryFromFlags(args.get(), "test_tool", &query));
  EXPECT_EQ(query.box.time.start(), 1577836800);
  EXPECT_EQ(query.box.time.end(), 1585612800);
  EXPECT_EQ(query.limit, 5);
}

TEST(SelectQueryFromFlagsTest, HugeTimeEndpointIsAUsageErrorNotUb) {
  // 1e300 is far outside int64 range: casting it is undefined behavior, so
  // the flag parser must reject it before any cast happens.
  ArgvFlags args({"--mbr=0,0,10,10", "--time=0,1e300"});
  SelectQuery query;
  EXPECT_FALSE(SelectQueryFromFlags(args.get(), "test_tool", &query));
}

TEST(SelectQueryFromFlagsTest, NegativeHugeTimeEndpointRejected) {
  ArgvFlags args({"--mbr=0,0,10,10", "--time=-1e300,0"});
  SelectQuery query;
  EXPECT_FALSE(SelectQueryFromFlags(args.get(), "test_tool", &query));
}

TEST(SelectQueryFromFlagsTest, ExactInt64BoundaryRejectedAboveMax) {
  // 2^63 itself is NOT representable as int64; the check is `>=`.
  ArgvFlags args({"--mbr=0,0,10,10", "--time=0,9223372036854775808"});
  SelectQuery query;
  EXPECT_FALSE(SelectQueryFromFlags(args.get(), "test_tool", &query));
}

TEST(SelectQueryFromFlagsTest, FractionalTimeEndpointRejected) {
  ArgvFlags args({"--mbr=0,0,10,10", "--time=0.5,100"});
  SelectQuery query;
  EXPECT_FALSE(SelectQueryFromFlags(args.get(), "test_tool", &query));
}

TEST(SelectQueryFromFlagsTest, MalformedOrNonFiniteMbrRejected) {
  // strtod stops at the 'x' and would read 10; a NaN or infinite corner
  // builds a box no comparison can reason about. All are usage errors.
  for (const char* mbr :
       {"--mbr=0,0,10x,10", "--mbr=nan,0,10,10", "--mbr=0,0,inf,10"}) {
    ArgvFlags args({mbr, "--time=0,100"});
    SelectQuery query;
    EXPECT_FALSE(SelectQueryFromFlags(args.get(), "test_tool", &query)) << mbr;
  }
}

TEST(SelectQueryFromFlagsTest, IdsAloneAreAValidPredicate) {
  ArgvFlags args({"--ids=1,2,3"});
  SelectQuery query;
  ASSERT_TRUE(SelectQueryFromFlags(args.get(), "test_tool", &query));
  EXPECT_TRUE(query.has_ids);
}

TEST(SelectQueryFromFlagsTest, NoPredicateIsAUsageError) {
  ArgvFlags args({"--limit=10"});
  SelectQuery query;
  EXPECT_FALSE(SelectQueryFromFlags(args.get(), "test_tool", &query));
}

}  // namespace
}  // namespace tools
}  // namespace st4ml
