// st4ml_index: operate on the persistent `.stix` sidecar indexes next to a
// dataset's `.stpq` part files (DESIGN.md §12). Three subcommands:
//
//   st4ml_index build    --dir=DIR | --file=PART.stpq
//       rewrites each part in its STR leaf order (atomic temp + rename;
//       the same records, so index.meta stays valid) and writes its
//       current sidecar — the manual spelling of what st4ml_ingest does
//       automatically, for retrofitting pre-index stores, upgrading a
//       sidecar of an older version, or rebuilding after a corruption.
//   st4ml_index verify   --dir=DIR | --file=PART.stpq
//       opens every sidecar through the full validation gauntlet (magic,
//       version, layout, postings, offsets, staleness) and reports per
//       file; exits non-zero if any sidecar is missing or bad.
//   st4ml_index describe --dir=DIR | --file=PART.stpq
//       prints each sidecar's header: records, tree nodes, distinct ids,
//       index bytes vs data bytes.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "index/stix.h"
#include "storage/stpq.h"
#include "tool_flags.h"
#include "tool_main.h"

namespace {

namespace fs = std::filesystem;

int Usage() {
  std::fprintf(stderr,
               "usage: st4ml_index build|verify|describe "
               "--dir=DIR | --file=PART.stpq\n");
  return 2;
}

/// The part files to operate on: one --file, or every *.stpq under --dir
/// (sorted, so output order is stable).
st4ml::StatusOr<std::vector<std::string>> Targets(
    const st4ml::tools::Flags& flags) {
  std::string file = flags.GetString("file", "");
  if (!file.empty()) return std::vector<std::string>{file};
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    return st4ml::Status::InvalidArgument("give --dir=DIR or --file=PART.stpq");
  }
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return st4ml::Status::NotFound("cannot list directory " + dir + ": " +
                                   ec.message());
  }
  std::vector<std::string> files;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".stpq") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    return st4ml::Status::NotFound("no .stpq files under " + dir);
  }
  return files;
}

st4ml::Status BuildOne(const std::string& path) {
  auto records = st4ml::RebuildIndexedPart(path);
  if (!records.ok()) return records.status();
  const std::string stix = st4ml::StixPathFor(path);
  std::printf("built %s (%llu records, %llu index bytes)\n", stix.c_str(),
              static_cast<unsigned long long>(*records),
              static_cast<unsigned long long>(st4ml::FileSizeBytes(stix)));
  return st4ml::Status::Ok();
}

int Run(int argc, char** argv) {
  st4ml::tools::Flags flags(argc, argv);
  std::string command;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      command = arg;
      break;
    }
  }
  if (command != "build" && command != "verify" && command != "describe") {
    return Usage();
  }
  auto targets = Targets(flags);
  if (!targets.ok()) {
    std::fprintf(stderr, "st4ml_index: %s\n",
                 targets.status().ToString().c_str());
    return targets.status().code() == st4ml::Status::Code::kInvalidArgument
               ? 2
               : 1;
  }

  int failures = 0;
  for (const std::string& path : *targets) {
    if (command == "build") {
      st4ml::Status status = BuildOne(path);
      if (!status.ok()) {
        std::fprintf(stderr, "st4ml_index: %s: %s\n", path.c_str(),
                     status.ToString().c_str());
        ++failures;
      }
      continue;
    }
    auto index = st4ml::StixIndex::Open(st4ml::StixPathFor(path), path);
    if (!index.ok()) {
      if (command == "verify") {
        std::printf("%s: BAD (%s)\n", path.c_str(),
                    index.status().ToString().c_str());
      } else {
        std::fprintf(stderr, "st4ml_index: %s: %s\n", path.c_str(),
                     index.status().ToString().c_str());
      }
      ++failures;
      continue;
    }
    if (command == "verify") {
      std::printf("%s: ok (%llu records)\n", path.c_str(),
                  static_cast<unsigned long long>(index->record_count()));
    } else {
      std::printf(
          "%s: records=%llu nodes=%llu ids=%llu index_bytes=%llu "
          "data_bytes=%llu\n",
          st4ml::StixPathFor(path).c_str(),
          static_cast<unsigned long long>(index->record_count()),
          static_cast<unsigned long long>(index->node_count()),
          static_cast<unsigned long long>(index->id_count()),
          static_cast<unsigned long long>(index->file_bytes()),
          static_cast<unsigned long long>(index->header().source_size));
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return st4ml::tools::ToolMain("st4ml_index",
                                [&] { return Run(argc, argv); });
}
