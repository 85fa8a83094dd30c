#ifndef ST4ML_SERVER_SERVER_H_
#define ST4ML_SERVER_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "ingest/ingestor.h"
#include "pipeline/session.h"
#include "server/admission.h"
#include "server/json.h"
#include "server/rate_limiter.h"

namespace st4ml {
namespace server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// port() — tests and the --port-file flag do).
  int port = 0;
  /// Job-verb concurrency cap and wait-queue depth (see AdmissionQueue).
  size_t max_inflight = 8;
  size_t queue_depth = 16;
  /// Steady job-verb request rate; 0 disables rate limiting.
  double rate_qps = 0;
  double rate_burst = 8;
  /// Largest request frame accepted before the payload is even read.
  size_t max_frame_bytes = 4 << 20;
  /// Concurrent-connection (and so per-connection-thread) cap; connections
  /// beyond it are shed at accept with a RESOURCE_EXHAUSTED frame.
  size_t max_connections = 64;
};

/// The st4mld core: accepts connections on 127.0.0.1, reads length-prefixed
/// JSON requests, and serves them against ONE shared Session — every request
/// runs as its own Job on the session's warm ExecutionContext, so the cache
/// and worker pool persist across requests (the entire point of the daemon,
/// DESIGN.md §10).
///
/// Verbs:
///   ping      {"verb":"ping"[,"sleep_ms":N<=5000]}        liveness / drain
///   stats     {"verb":"stats"}           session counters + dataset indexes
///   select    {"verb":"select","dir":D,"mbr":[4],"time":[2]
///              [,"ids":[...]][,"limit":N]}
///   lookup_id {"verb":"lookup_id","dir":D,"ids":[...]
///              [,"mbr":[4],"time":[2]][,"limit":N]}
///   extract   {"verb":"extract","dir":D,"mbr":[4],"time":[2]
///              [,"interval":S]}         time / interval <= 65536 bins
///   append    {"verb":"append","dir":D,"records":[{"id":I,"x":X,"y":Y,
///              "time":T[,"attr":S]},...]}       streaming WAL ingestion
///   flush     {"verb":"flush","dir":D}    seal + compact everything staged
///   ingest_status {"verb":"ingest_status","dir":D}     Ingestor counters
///   shutdown  {"verb":"shutdown"}                         graceful stop
///
/// append/flush/ingest_status serve a per-dir Ingestor (lazily opened, with
/// crash recovery, on first use); a select, lookup_id or extract against an
/// ingest directory is answered from the MERGED view — compacted partitions
/// plus the staged WAL tail — under the ingestor's snapshot lock, so every
/// acked record appears exactly once even mid-compaction (DESIGN.md §13).
///
/// select/lookup_id/extract all parse into the ONE SelectQuery type; a
/// lookup_id with no mbr/time spans everything and lets the id postings
/// (disk index) or id filter (other plans) drive selection alone.
///
/// Responses are {"ok":true,...} or {"ok":false,"code":C,"error":M} with C
/// in {NOT_FOUND, INVALID_ARGUMENT, IO_ERROR, CORRUPTION, INTERNAL,
/// RESOURCE_EXHAUSTED}. Job verbs attach the request's OWN metrics delta
/// (per-job counters, not session totals) plus elapsed_us.
///
/// Overload: select/lookup_id/extract pass the token-bucket rate limiter and
/// the bounded admission queue; both shed with RESOURCE_EXHAUSTED. ping/stats
/// bypass both so health stays observable under load.
///
/// Shutdown is graceful: stop accepting, unblock idle readers, let in-flight
/// handlers finish and write their responses, then join every thread.
class Server {
 public:
  Server(Session* session, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts the accept loop. IOError if the port is taken.
  Status Start();

  /// The bound port (valid after Start; useful with options.port == 0).
  int port() const { return port_; }

  /// Blocks up to `timeout_ms` for a client's shutdown verb. Returns true
  /// once one arrived — the daemon's main loop alternates this with its
  /// signal-flag check, then calls Shutdown() itself.
  bool WaitShutdownRequested(int timeout_ms);

  /// Graceful stop; idempotent. Safe to call with requests in flight — they
  /// complete and their responses are written before sockets close.
  void Shutdown();

  /// Currently open client connections (test hook).
  size_t ActiveConnectionsForTest();
  /// Per-connection threads not yet joined: live handlers plus handlers that
  /// finished since the last accept-side reap (test hook for the reaper —
  /// a long-lived daemon must not accumulate one thread per connection ever
  /// served).
  size_t ConnectionThreadsForTest();

 private:
  void AcceptLoop();
  /// Joins handler threads that have finished since the last call; runs on
  /// the accept thread so churny short connections are reaped as new ones
  /// arrive rather than only at Shutdown.
  void ReapFinishedThreads();
  void HandleConnection(uint64_t conn_id, int fd);
  /// One request frame → one response payload. Sets *close_after for
  /// protocol-fatal inputs (oversized frame).
  std::string HandleRequest(const std::string& payload, bool* close_after);
  /// select and lookup_id share one implementation: both run the Selector on
  /// a SelectQuery and render sorted rows; lookup_id just makes `ids`
  /// mandatory and mbr/time optional.
  std::string HandleSelect(const JsonValue& request, bool lookup_by_id);
  std::string HandleExtract(const JsonValue& request);
  std::string HandleAppend(const JsonValue& request);
  std::string HandleFlush(const JsonValue& request);
  std::string HandleIngestStatus(const JsonValue& request);
  std::string HandleStats();
  /// The lazily-opened Ingestor serving `dir` (crash recovery runs on first
  /// open). One Ingestor per directory for the daemon's lifetime.
  StatusOr<Ingestor*> IngestorFor(const std::string& dir);
  /// The live ingestor for `dir` when one is already open, else nullptr —
  /// the select path uses this to decide merged vs batch serving without
  /// opening one as a side effect.
  Ingestor* FindIngestor(const std::string& dir);
  /// Remembers a dataset dir a job verb touched, so stats can report each
  /// one's on-disk index coverage.
  void RecordServedDir(const std::string& dir);

  Session* session_;
  ServerOptions options_;
  AdmissionQueue admission_;
  RateLimiter rate_limiter_;

  int listen_fd_ = -1;
  int port_ = 0;
  /// Self-pipe that unblocks the accept loop's poll() on Shutdown —
  /// shutdown(2) on a LISTENING socket only works on Linux, so it is not
  /// relied on for wakeup.
  int wake_pipe_[2] = {-1, -1};
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopping_ = false;
  /// Live handler threads by connection id; a handler moves its own handle
  /// into finished_threads_ on exit, where the accept loop (or Shutdown)
  /// joins it.
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;
  std::unordered_set<int> open_fds_;
  /// Dataset dirs served so far (guarded by mu_); stats walks each one to
  /// report how many .stpq files have a .stix sidecar next to them.
  std::unordered_set<std::string> served_dirs_;

  /// Streaming ingestion state, its own lock: opening an Ingestor runs
  /// recovery I/O and must not stall connection bookkeeping under mu_.
  std::mutex ingest_mu_;
  std::map<std::string, std::unique_ptr<Ingestor>> ingestors_;
};

}  // namespace server
}  // namespace st4ml

#endif  // ST4ML_SERVER_SERVER_H_
