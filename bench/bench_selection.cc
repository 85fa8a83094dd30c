// Figure 5: processing time (a–b) and memory usage (c–d) of loading and
// selecting event and trajectory data — ST4ML's on-disk metadata index
// versus the native full-scan layout, across query-range fractions.
//
// Expected shape (paper): the index saves up to ~60% of time; savings are
// larger at small query ranges; 42–98% of irrelevant data is pruned; the
// curves converge as the range fraction approaches 1.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "selection/selector.h"

namespace st4ml {
namespace bench {
namespace {

template <typename RecordT>
void RunSweep(const BenchEnv& env, const char* dataset_name,
              const ScaledDirs& dirs, const Mbr& extent, const Duration& range) {
  std::printf("\n--- %s: loading + selection (3 queries per range) ---\n",
              dataset_name);
  TablePrinter table({"range frac", "native", "indexed", "saving",
                      "native loaded", "indexed loaded", "selected",
                      "pruned"});
  const int repeat = static_cast<int>(GetEnvInt("ST4ML_SEL_REPEAT", 3));
  // Warm the page cache once so both layouts read from memory-backed files,
  // like the paper's repeated-runs-average methodology.
  {
    SelectorOptions options;
    Selector<RecordT> warm(env.ctx, SelectQuery::FromBox(STBox(extent, range)), options);
    (void)warm.Select(dirs.plain_dir);
    (void)warm.Select(dirs.st4ml_dir, dirs.st4ml_meta);
  }
  for (double fraction : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    auto queries = MakeQueries(extent, range, fraction, 3, 777);
    double t_native = 0, t_indexed = 0;
    uint64_t native_loaded = 0, indexed_loaded = 0, selected_bytes = 0;
    for (const STBox& q : queries) {
      SelectorOptions options;

      // Noise-robust estimate: best of `repeat` runs per query.
      Selector<RecordT> native(env.ctx, SelectQuery::FromBox(q), options);
      double best_native = 1e30;
      for (int r = 0; r < repeat; ++r) {
        best_native = std::min(best_native, TimeIt([&] {
          auto result = native.Select(dirs.plain_dir);
          ST4ML_CHECK(result.ok()) << result.status().ToString();
        }));
      }
      t_native += best_native;
      native_loaded += native.stats().bytes_loaded;

      Selector<RecordT> indexed(env.ctx, SelectQuery::FromBox(q), options);
      double best_indexed = 1e30;
      for (int r = 0; r < repeat; ++r) {
        best_indexed = std::min(best_indexed, TimeIt([&] {
          auto result = indexed.Select(dirs.st4ml_dir, dirs.st4ml_meta);
          ST4ML_CHECK(result.ok()) << result.status().ToString();
        }));
      }
      t_indexed += best_indexed;
      indexed_loaded += indexed.stats().bytes_loaded;
      selected_bytes += indexed.stats().bytes_selected;
    }
    double saving = 1.0 - t_indexed / t_native;
    uint64_t native_irrelevant = native_loaded - selected_bytes;
    uint64_t indexed_irrelevant =
        indexed_loaded > selected_bytes ? indexed_loaded - selected_bytes : 0;
    double pruned = native_irrelevant == 0
                        ? 0.0
                        : 1.0 - static_cast<double>(indexed_irrelevant) /
                                    static_cast<double>(native_irrelevant);
    char frac_buf[16], saving_buf[16], pruned_buf[16];
    std::snprintf(frac_buf, sizeof(frac_buf), "%.2f", fraction);
    std::snprintf(saving_buf, sizeof(saving_buf), "%.0f%%", saving * 100);
    std::snprintf(pruned_buf, sizeof(pruned_buf), "%.0f%%", pruned * 100);
    table.AddRow({frac_buf, FmtSeconds(t_native), FmtSeconds(t_indexed),
                  saving_buf, FmtMb(native_loaded), FmtMb(indexed_loaded),
                  FmtMb(selected_bytes), pruned_buf});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace st4ml

int main() {
  using namespace st4ml::bench;
  const BenchEnv& env = GetBenchEnv();
  std::printf("== Fig. 5: on-disk indexing with metadata ==\n");
  std::printf("T-STR partitioned on-disk layout vs native full scan\n");
  RunSweep<st4ml::EventRecord>(env, "NYC events (Fig. 5a/5c)", env.nyc[2],
                               env.nyc_extent, env.nyc_range);
  RunSweep<st4ml::TrajRecord>(env, "Porto trajectories (Fig. 5b/5d)",
                              env.porto[2], env.porto_extent, env.porto_range);
  std::printf(
      "\n'pruned' = share of irrelevant (loaded-but-unselected) data the\n"
      "index avoided loading, the shaded area of Fig. 5c-d.\n");
  return 0;
}
