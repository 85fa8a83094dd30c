// st4ml_bench: the repository benchmark program. Runs ONE workload per
// process and prints one JSON line per metric followed by the result
// object (see perfbench/README.md). run.py builds and invokes it.
//
// Usage: st4ml_bench --workload=W --seed=N --seconds=S --trace=0|1
//                    --data-dir=D [--trace-out=F]

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"

namespace {

int Usage() {
  std::cerr << "usage: st4ml_bench --workload=apps_cold|serve_warm|"
               "serve_thrash|ingest_mixed --seed=N --seconds=S --trace=0|1 "
               "--data-dir=DIR [--trace-out=FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace st4ml::perfbench;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::char_traits<char>::length(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      config.workload = v;
    } else if (const char* v = value("--seed=")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      config.seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      config.traced = std::string(v) == "1";
    } else if (const char* v = value("--data-dir=")) {
      config.data_dir = v;
    } else if (const char* v = value("--trace-out=")) {
      config.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (config.data_dir.empty() || !(config.seconds > 0)) return Usage();
  std::filesystem::create_directories(config.data_dir);
  config.workers = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  if (config.workload == "apps_cold") return RunAppsCold(config);
  if (config.workload == "serve_warm") return RunServe(config, false);
  if (config.workload == "serve_thrash") return RunServe(config, true);
  if (config.workload == "ingest_mixed") return RunIngestMixed(config);
  return Usage();
}
