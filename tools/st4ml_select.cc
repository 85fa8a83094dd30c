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

#include <algorithm>
#include <cstdio>
#include <string>
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

  size_t count;
  if (query.count_only) {
    // No materialization, no sort, no row formatting — the fast path a
    // cardinality probe wants.
    count = selected->Count();
    std::printf("count\n%zu\n", count);
  } else {
    std::vector<st4ml::EventRecord> records = selected->Collect();
    std::sort(records.begin(), records.end(),
              [](const st4ml::EventRecord& a, const st4ml::EventRecord& b) {
                return a.id < b.id;
              });
    count = records.size();
    size_t shown = query.limit < 0
                       ? records.size()
                       : std::min(records.size(),
                                  static_cast<size_t>(query.limit));
    std::printf("id,x,y,time,attr\n");
    for (size_t i = 0; i < shown; ++i) {
      const st4ml::EventRecord& r = records[i];
      std::printf("%lld,%.6f,%.6f,%lld,%s\n", static_cast<long long>(r.id),
                  r.x, r.y, static_cast<long long>(r.time), r.attr.c_str());
    }
  }
  std::fprintf(stderr,
               "st4ml_select: %zu records (loaded %llu bytes, kept %llu)\n",
               count,
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
