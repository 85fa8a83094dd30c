// Table 5: load-balance evaluation of the partitioning methods — CV
// (coefficient of variation of partition sizes; lower = better balance) and
// OV (sum of per-partition ST-MBR volumes over the global ST-MBR volume;
// lower = better ST locality) on the event and trajectory datasets.
//
// Expected shape (paper): native hash has the lowest CV but the highest OV
// (no ST awareness at all); GeoSpark's K-D-B and GeoMesa's grid preserve only
// spatial locality (high ST OV; the grid also suffers high CV under skew);
// ST4ML's T-STR is the best joint CV/OV trade-off.
//
// A second table trains T-STR the way TrySTPartition does, on a strided
// sample of the envelopes, and shows what each sample size costs in balance
// (EXPERIMENTS.md "Sampled ST-partition training").

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "partition/balance.h"
#include "partition/baseline_partitioners.h"
#include "partition/hash_partitioner.h"
#include "partition/st_partition_ops.h"
#include "partition/quadtree_partitioner.h"
#include "partition/str_partitioner.h"
#include "partition/tbalance_partitioner.h"
#include "selection/selector.h"

namespace st4ml {
namespace bench {
namespace {

constexpr int kPartitions = 256;  // paper uses 1024 on a 32-executor cluster
constexpr int kTstrGranularity = 16;  // gt = gs = sqrt(kPartitions)

/// Every record envelope of a staged dataset, in scan order.
template <typename RecordT>
std::vector<STBox> LoadBoxes(const BenchEnv& env, const ScaledDirs& dirs,
                             const Mbr& extent, const Duration& range) {
  SelectorOptions options;
  Selector<RecordT> selector(env.ctx, SelectQuery::FromBox(STBox(extent, range)), options);
  auto data_or = selector.Select(dirs.plain_dir);
  ST4ML_CHECK(data_or.ok()) << data_or.status().ToString();
  std::vector<RecordT> records = std::move(*data_or).Collect();

  std::vector<STBox> boxes;
  boxes.reserve(records.size());
  for (const RecordT& r : records) boxes.push_back(r.ComputeSTBox());
  return boxes;
}

template <typename RecordT>
void Evaluate(const BenchEnv& env, const char* dataset, const ScaledDirs& dirs,
              const Mbr& extent, const Duration& range, TablePrinter* table) {
  std::vector<STBox> boxes = LoadBoxes<RecordT>(env, dirs, extent, range);

  struct Candidate {
    const char* name;
    std::unique_ptr<STPartitioner> partitioner;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"Native (hash)",
                        std::make_unique<HashPartitioner>(kPartitions)});
  candidates.push_back({"GeoSpark (K-D-B)",
                        std::make_unique<KDBPartitioner>(kPartitions)});
  candidates.push_back({"GeoMesa (grid)",
                        std::make_unique<GridPartitioner>(kPartitions)});
  candidates.push_back({"ST4ML (T-STR)",
                        std::make_unique<TSTRPartitioner>(kTstrGranularity,
                                                          kTstrGranularity)});
  // Beyond Table 5: ST4ML's other partitioners, for context.
  candidates.push_back({"ST4ML (2-d STR)",
                        std::make_unique<STRPartitioner>(kPartitions)});
  candidates.push_back({"ST4ML (quad-tree)",
                        std::make_unique<QuadTreePartitioner>(kPartitions)});
  candidates.push_back({"ST4ML (T-balance)",
                        std::make_unique<TBalancePartitioner>(kPartitions)});

  for (Candidate& c : candidates) {
    c.partitioner->Train(boxes);
    int n = c.partitioner->num_partitions();
    std::vector<int> assignment(boxes.size());
    std::vector<size_t> sizes(n, 0);
    for (size_t i = 0; i < boxes.size(); ++i) {
      assignment[i] = c.partitioner->Assign(boxes[i], false, i)[0];
      ++sizes[assignment[i]];
    }
    double cv = CoefficientOfVariation(sizes);
    double ov = OverlapRatio(PartitionContentBounds(boxes, assignment, n));
    char cv_buf[24], ov_buf[24];
    std::snprintf(cv_buf, sizeof(cv_buf), "%.4f", cv);
    std::snprintf(ov_buf, sizeof(ov_buf), "%.2f", ov);
    table->AddRow({c.name, dataset, cv_buf, ov_buf});
  }
}

/// Beyond Table 5: the balance of layouts trained the way TrySTPartition
/// trains them, on the strided sample of `sample` envelopes (0 = all),
/// with every record then assigned to its primary.
template <typename RecordT>
void EvaluateSampled(const BenchEnv& env, const char* dataset,
                     const ScaledDirs& dirs, const Mbr& extent,
                     const Duration& range, TablePrinter* table) {
  std::vector<STBox> boxes = LoadBoxes<RecordT>(env, dirs, extent, range);
  const std::string name = dataset + (" (" + std::to_string(boxes.size())) + ")";
  for (int g : {4, 8}) {  // apps' T-STR(4,4) and bench_tstr's T-STR(8,8)
    for (size_t sample : {2048u, 4096u, 8192u, 16384u, 0u}) {
      TSTRPartitioner tstr(g, g);
      tstr.Train(sample == 0 ? boxes
                             : partition_internal::StridedSample(boxes, sample));
      int n = tstr.num_partitions();
      std::vector<int> assignment(boxes.size());
      std::vector<size_t> sizes(n, 0);
      for (size_t i = 0; i < boxes.size(); ++i) {
        assignment[i] = tstr.Assign(boxes[i], false, i)[0];
        ++sizes[assignment[i]];
      }
      size_t max_size = *std::max_element(sizes.begin(), sizes.end());
      double mean = static_cast<double>(boxes.size()) / n;
      double ov = OverlapRatio(PartitionContentBounds(boxes, assignment, n));
      char cv_buf[24], max_buf[24], ov_buf[24];
      std::snprintf(cv_buf, sizeof(cv_buf), "%.4f",
                    CoefficientOfVariation(sizes));
      std::snprintf(max_buf, sizeof(max_buf), "%.3f", max_size / mean);
      std::snprintf(ov_buf, sizeof(ov_buf), "%.2f", ov);
      table->AddRow({"T-STR(" + std::to_string(g) + "," + std::to_string(g) +
                         ")",
                     name, sample == 0 ? "all" : std::to_string(sample), cv_buf,
                     max_buf, ov_buf});
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace st4ml

int main() {
  using namespace st4ml::bench;
  const BenchEnv& env = GetBenchEnv();
  std::printf("== Table 5: partitioner load balance (CV) and ST locality (OV) ==\n");
  std::printf("%d partitions; T-STR granularity (%d, %d)\n\n", kPartitions,
              kTstrGranularity, kTstrGranularity);
  TablePrinter table({"partitioner", "dataset", "CV (lower=balanced)",
                      "OV (lower=ST-local)"});
  Evaluate<st4ml::EventRecord>(env, "events", env.nyc[2], env.nyc_extent,
                               env.nyc_range, &table);
  Evaluate<st4ml::TrajRecord>(env, "trajectories", env.porto[2],
                              env.porto_extent, env.porto_range, &table);
  table.Print();

  std::printf("\n== Sampled training: T-STR trained on the strided sample "
              "TrySTPartition uses ==\n\n");
  TablePrinter sampled({"layout", "dataset (records)", "sample", "CV",
                        "max/mean", "OV"});
  EvaluateSampled<st4ml::EventRecord>(env, "events", env.nyc[1],
                                      env.nyc_extent, env.nyc_range, &sampled);
  EvaluateSampled<st4ml::EventRecord>(env, "events", env.nyc[2],
                                      env.nyc_extent, env.nyc_range, &sampled);
  EvaluateSampled<st4ml::TrajRecord>(env, "trajectories", env.porto[2],
                                     env.porto_extent, env.porto_range,
                                     &sampled);
  sampled.Print();
  return 0;
}
