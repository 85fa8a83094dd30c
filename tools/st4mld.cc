// st4mld: the ST4ML query daemon. Owns ONE warm Session — ExecutionContext,
// worker pool and DatasetCache — for its whole lifetime and serves
// select/extract pipelines over a length-prefixed JSON socket protocol, so
// repeated queries hit a hot cache instead of paying a cold start per
// invocation (the batch CLIs' cost model). See DESIGN.md §10.
//
//   st4mld --port=7878 [--cache-budget=-1]
//       [--max-inflight=8] [--queue-depth=16] [--max-connections=64]
//       [--rate-qps=0 --rate-burst=8]
//       [--port-file=FILE] [--trace=FILE] [--metrics-json=FILE]
//
// --port=0 binds an ephemeral port; --port-file writes the bound port for
// scripts (the CI serve smoke uses it). Stops on SIGINT/SIGTERM or a
// client's shutdown verb, draining in-flight requests first.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "pipeline/session.h"
#include "server/server.h"
#include "tool_flags.h"
#include "tool_main.h"

namespace {

volatile std::sig_atomic_t g_signal_received = 0;

void OnSignal(int) { g_signal_received = 1; }

int Run(int argc, char** argv) {
  st4ml::tools::Flags flags(argc, argv);
  st4ml::ToolOptions options = st4ml::tools::ToolOptionsFromFlags(flags);
  // A daemon exists to stay warm: default the cache to unbounded instead of
  // the batch tools' off-unless-asked, while still honoring an explicit
  // --cache-budget (0 turns it off for A/B runs).
  if (!options.has_cache_budget) {
    options.has_cache_budget = true;
    options.cache_budget_bytes = -1;
  }
  st4ml::Session session(options);
  if (!st4ml::tools::CheckSessionConfig(session, "st4mld")) return 2;

  st4ml::server::ServerOptions server_options;
  server_options.port = static_cast<int>(flags.GetInt("port", 0));
  server_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max-inflight", 8));
  server_options.queue_depth =
      static_cast<size_t>(flags.GetInt("queue-depth", 16));
  server_options.rate_qps =
      static_cast<double>(flags.GetInt("rate-qps", 0));
  server_options.rate_burst =
      static_cast<double>(flags.GetInt("rate-burst", 8));
  server_options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 64));
  if (!st4ml::tools::CheckIntFlags(flags, "st4mld")) return 2;
  // Frame writes already use MSG_NOSIGNAL, but a daemon must never die of
  // SIGPIPE from any write path a disconnected client can reach.
  std::signal(SIGPIPE, SIG_IGN);
  st4ml::server::Server server(&session, server_options);
  st4ml::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "st4mld: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "st4mld: listening on 127.0.0.1:%d\n", server.port());

  std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Alternate between the shutdown-verb wait and the signal flag; both end
  // in the same graceful drain.
  while (!server.WaitShutdownRequested(/*timeout_ms=*/200)) {
    if (g_signal_received != 0) break;
  }
  std::fprintf(stderr, "st4mld: shutting down (%s)\n",
               g_signal_received != 0 ? "signal" : "shutdown verb");
  server.Shutdown();
  if (!session.ExportArtifacts("st4mld")) return 1;
  std::fprintf(stderr, "st4mld: served %llu jobs\n",
               static_cast<unsigned long long>(session.jobs_started()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return st4ml::tools::ToolMain("st4mld", [&] { return Run(argc, argv); });
}
