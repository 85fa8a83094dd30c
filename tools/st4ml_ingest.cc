// st4ml_ingest: reads an event CSV (id,x,y,time,attr) from stdin and builds
// the on-disk store under --dir.
//
// Batch mode (default): read all of stdin, T-STR partition, write the
// indexed partitions and the metadata sidecar selection prunes with.
//
// Both modes read stdin through ReadEventsCsv: a leading `id,...` header
// row is optional.
//
//   st4ml_datagen | st4ml_ingest --dir=stpq_store [--trace=trace.json]
//       [--metrics-json=metrics.json]
//
// Follow mode (--follow): treat stdin as a LIVE stream — each line is
// appended to the directory's write-ahead log as it arrives (crash-safe: an
// acked line survives a SIGKILL and is replayed on reopen) while the
// background compactor rolls sealed segments into indexed partitions. At
// EOF the staged tail is flushed into partitions. A Select issued
// mid-stream sees every acked record exactly once (DESIGN.md §13).
//
//   tail -f events.csv | st4ml_ingest --dir=stpq_store --follow
//       [--bucket-seconds=3600] [--seal-records=4096]

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ingest/ingestor.h"
#include "partition/str_partitioner.h"
#include "pipeline/session.h"
#include "selection/on_disk_index.h"
#include "storage/text_import.h"
#include "tool_flags.h"
#include "tool_main.h"

namespace fs = std::filesystem;

namespace {

int RunFollow(const std::string& dir, st4ml::Session& session,
              const st4ml::tools::Flags& flags) {
  st4ml::IngestorOptions options;
  options.bucket_seconds = flags.GetInt("bucket-seconds", 3600);
  options.seal_records =
      static_cast<uint64_t>(flags.GetInt("seal-records", 4096));
  options.compact_interval_ms = flags.GetInt("compact-interval-ms", 200);
  if (!st4ml::tools::CheckIntFlags(flags, "st4ml_ingest")) return 2;
  auto ingestor =
      st4ml::Ingestor::Open(dir, options, session.context().get());
  if (!ingestor.ok()) {
    std::fprintf(stderr, "st4ml_ingest: %s\n",
                 ingestor.status().ToString().c_str());
    return 1;
  }
  if ((*ingestor)->Stats().replayed > 0) {
    std::fprintf(stderr, "st4ml_ingest: replayed %llu staged records\n",
                 static_cast<unsigned long long>((*ingestor)->Stats().replayed));
  }

  uint64_t appended = 0;
  st4ml::Status status = st4ml::ReadEventsCsv(
      std::cin, "stdin", [&](st4ml::EventRecord record) {
        // Ok here IS the ack: the record is in the WAL and survives a crash.
        ST4ML_RETURN_IF_ERROR((*ingestor)->AppendBatch({std::move(record)}));
        ++appended;
        return st4ml::Status::Ok();
      });
  if (status.ok()) status = (*ingestor)->Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "st4ml_ingest: %s\n", status.ToString().c_str());
    return 1;
  }
  st4ml::IngestorStats stats = (*ingestor)->Stats();
  std::fprintf(stderr,
               "st4ml_ingest: appended %llu events -> %llu compacted "
               "(generation %llu) under %s\n",
               static_cast<unsigned long long>(appended),
               static_cast<unsigned long long>(stats.compacted),
               static_cast<unsigned long long>(stats.generation), dir.c_str());
  if (!session.ExportArtifacts("st4ml_ingest")) return 1;
  return 0;
}

int Run(int argc, char** argv) {
  st4ml::tools::Flags flags(argc, argv);
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: st4ml_ingest --dir=DIR [--slices=4] [--tiles=4] "
                 "[--follow [--bucket-seconds=3600] [--seal-records=4096]] "
                 "< events.csv\n");
    return 2;
  }
  fs::create_directories(dir);

  st4ml::Session session(st4ml::tools::ToolOptionsFromFlags(flags));
  if (!st4ml::tools::CheckSessionConfig(session, "st4ml_ingest")) return 2;

  if (flags.Has("follow")) return RunFollow(dir, session, flags);

  std::vector<st4ml::EventRecord> events;
  st4ml::Status read = st4ml::ReadEventsCsv(
      std::cin, "stdin", [&](st4ml::EventRecord record) {
        events.push_back(std::move(record));
        return st4ml::Status::Ok();
      });
  if (!read.ok()) {
    std::fprintf(stderr, "st4ml_ingest: %s\n", read.ToString().c_str());
    return 1;
  }
  const size_t num_events = events.size();

  auto data = st4ml::Dataset<st4ml::EventRecord>::Parallelize(
      session.context(), std::move(events), 4);
  st4ml::TSTRPartitioner partitioner(
      static_cast<int>(flags.GetInt("slices", 4)),
      static_cast<int>(flags.GetInt("tiles", 4)));
  if (!st4ml::tools::CheckIntFlags(flags, "st4ml_ingest")) return 2;
  st4ml::Job job = session.StartJob("st4ml_ingest");
  job.Run(
      "ingest",
      [&](const st4ml::Dataset<st4ml::EventRecord>& records) {
        return st4ml::BuildOnDiskIndex(records, &partitioner, dir,
                                       dir + "/index.meta");
      },
      data);
  job.Finish();
  if (!job.ok()) {
    std::fprintf(stderr, "st4ml_ingest: %s\n",
                 job.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "st4ml_ingest: %zu events -> %d partitions under %s\n",
               num_events, partitioner.num_partitions(), dir.c_str());
  if (!session.ExportArtifacts("st4ml_ingest")) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return st4ml::tools::ToolMain("st4ml_ingest",
                                [&] { return Run(argc, argv); });
}
