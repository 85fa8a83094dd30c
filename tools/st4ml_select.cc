// st4ml_select: metadata-pruned selection over a dataset directory, batch-
// built or streamed (st4ml_ingest, st4ml_ingest --follow, or st4mld's
// ingest verbs). It serves the merged view: the parts `<dir>/index.meta`
// lists plus the staged WAL tail, so a directory still being written is read
// with every acked record exactly once. Prints matching events as CSV on
// stdout. The predicate is the unified SelectQuery: an ST box, an id list,
// or both (AND).
//
//   st4ml_select --dir=stpq_store --mbr=-74.05,40.60,-73.75,40.90
//       --time=1577836800,1585612800 [--ids=1,2,3] [--limit=N]
//       [--count-only] [--cache-budget=67108864]
//       [--trace=trace.json] [--metrics-json=metrics.json] > selected.csv

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/session.h"
#include "selection/select_query.h"
#include "selection/selector.h"
#include "tool_flags.h"
#include "tool_main.h"

namespace {

int Run(int argc, char** argv) {
  st4ml::tools::Flags flags(argc, argv);
  std::string dir = flags.GetString("dir", "");
  st4ml::SelectQuery query;
  if (dir.empty() ||
      !st4ml::tools::SelectQueryFromFlags(flags, "st4ml_select", &query)) {
    std::fprintf(stderr,
                 "usage: st4ml_select --dir=DIR "
                 "[--mbr=x1,y1,x2,y2 --time=start,end] [--ids=1,2,3] "
                 "[--limit=N] [--count-only] "
                 "[--cache-budget=BYTES] [--trace=FILE] "
                 "[--metrics-json=FILE] [--backend=scalar|avx2]\n");
    return 2;
  }

  st4ml::ToolOptions options = st4ml::tools::ToolOptionsFromFlags(flags);
  if (!st4ml::tools::CheckIntFlags(flags, "st4ml_select")) return 2;
  st4ml::Session session(options);
  if (!st4ml::tools::CheckSessionConfig(session, "st4ml_select")) return 2;
  st4ml::Selector<st4ml::EventRecord> selector(session.context(), query);
  st4ml::Job job = session.StartJob("st4ml_select");
  auto selected = job.Run("selection", [&] {
    return selector.Select(dir, dir + "/index.meta");
  });
  job.Finish();
  if (!job.ok()) {
    std::fprintf(stderr, "st4ml_select: %s\n",
                 job.status().ToString().c_str());
    return 1;
  }

  // The selector shaped each file's matches (none for --count-only, at
  // most --limit per file otherwise), so only those rows are ordered here.
  // Its stats carry the count.
  const uint64_t count = selector.stats().records_matched;
  if (query.count_only) {
    std::printf("count\n%llu\n", static_cast<unsigned long long>(count));
  } else {
    std::printf("id,x,y,time,attr\n");
    for (const st4ml::EventRecord& r :
         st4ml::RowsInIdOrder(std::move(*selected), query.limit)) {
      std::printf("%lld,%.6f,%.6f,%lld,%s\n", static_cast<long long>(r.id),
                  r.x, r.y, static_cast<long long>(r.time), r.attr.c_str());
    }
  }
  std::fprintf(stderr,
               "st4ml_select: %llu records (loaded %llu bytes, kept %llu)\n",
               static_cast<unsigned long long>(count),
               static_cast<unsigned long long>(selector.stats().bytes_loaded),
               static_cast<unsigned long long>(
                   selector.stats().bytes_selected));
  if (!session.ExportArtifacts("st4ml_select")) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return st4ml::tools::ToolMain("st4ml_select",
                                [&] { return Run(argc, argv); });
}
