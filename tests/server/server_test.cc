// End-to-end st4mld server tests (ISSUE 6): a real Server on an ephemeral
// loopback port in front of ONE warm Session, driven through the real
// Client. Pins the acceptance criteria: 8 concurrent clients with isolated
// per-job metrics, warm-cache hits on repeated selections, rate-limit
// shedding with RESOURCE_EXHAUSTED, protocol-error handling that keeps (or
// deliberately drops) the connection, and graceful shutdown that drains
// in-flight requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "accel/kernels.h"
#include "common/property.h"
#include "pipeline/session.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/server.h"

namespace st4ml {
namespace server {
namespace {

ToolOptions DaemonOptions() {
  // The daemon defaults: unbounded cache (warm requests are the point),
  // modest worker pool.
  ToolOptions options;
  options.has_cache_budget = true;
  options.cache_budget_bytes = -1;
  options.num_workers = 4;
  return options;
}

/// One in-process daemon: Session + Server, started on an ephemeral port.
struct Daemon {
  explicit Daemon(ServerOptions server_options = {})
      : session(DaemonOptions()), server(&session, server_options) {
    Status started = server.Start();
    ST4ML_CHECK(started.ok()) << started.ToString();
  }
  ~Daemon() { server.Shutdown(); }

  Client Connect() {
    auto client = Client::Connect(server.port());
    ST4ML_CHECK(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// Waits up to 5 s for the server to hold at most `n` open connections
  /// and returns the final count. A handler frees its slot only when it
  /// reads its client's hangup, which can land after the client's next
  /// connect.
  size_t AwaitActiveConnectionsAtMost(size_t n) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.ActiveConnectionsForTest() > n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return server.ActiveConnectionsForTest();
  }

  Session session;
  Server server;
};

/// Staged 400-record workload shared by most tests in this file.
testing::CacheWorkload ServeWorkload() {
  testing::CacheWorkload w;
  w.seed = 4242;
  w.num_records = 400;
  w.grid_t = 2;
  w.grid_s = 2;
  w.query = STBox(Mbr(0, 0, 100, 100), Duration(0, 100000));
  return w;
}

std::string SelectRequest(const std::string& dir, int64_t t_lo, int64_t t_hi,
                          int64_t limit = 100000) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                R"({"verb":"select","dir":"%s","mbr":[0,0,100,100],)"
                R"("time":[%lld,%lld],"limit":%lld})",
                dir.c_str(), static_cast<long long>(t_lo),
                static_cast<long long>(t_hi), static_cast<long long>(limit));
  return buf;
}

/// Calls and parses; fails the test (and returns a null value) on transport
/// or parse errors so callers can assert on fields directly.
JsonValue Call(Client& client, const std::string& request) {
  auto response = client.Call(request);
  if (!response.ok()) {
    ADD_FAILURE() << "Call failed: " << response.status().ToString();
    return JsonValue{};
  }
  auto parsed = ParseJson(*response);
  if (!parsed.ok()) {
    ADD_FAILURE() << "unparseable response: " << *response;
    return JsonValue{};
  }
  return *parsed;
}

bool Ok(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->IsBool() && ok->bool_value;
}

std::string ErrorCode(const JsonValue& response) {
  return response.GetString("code", "");
}

int64_t Metric(const JsonValue& response, const std::string& name) {
  const JsonValue* metrics = response.Find("metrics");
  if (metrics == nullptr) return -1;
  return metrics->GetInt(name, -1);
}

/// A bare socket to the daemon, for tests that need to misbehave in ways
/// Client cannot (hang up without reading, read without writing).
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerTest, PingStatsAndValidation) {
  Daemon daemon;
  Client client = daemon.Connect();

  JsonValue pong = Call(client, R"({"verb":"ping"})");
  EXPECT_TRUE(Ok(pong));

  JsonValue bad_sleep = Call(client, R"({"verb":"ping","sleep_ms":60000})");
  EXPECT_FALSE(Ok(bad_sleep));
  EXPECT_EQ(ErrorCode(bad_sleep), "INVALID_ARGUMENT");

  JsonValue stats = Call(client, R"({"verb":"stats"})");
  EXPECT_TRUE(Ok(stats));
  EXPECT_EQ(stats.GetInt("jobs_started", -1), 0);
  ASSERT_NE(stats.Find("metrics"), nullptr);

  // The daemon reports which kernel backend it computes on, and it must be
  // one the registry actually has (DESIGN.md §11).
  std::string backend = stats.GetString("backend", "");
  EXPECT_NE(accel::BackendRegistry::Instance().Find(backend), nullptr)
      << "stats reported unknown backend '" << backend << "'";
  EXPECT_GE(stats.GetInt("backend_batches", -1), 0);
  EXPECT_GE(stats.GetInt("backend_batch_records", -1), 0);
  EXPECT_GE(stats.GetInt("backend_fallback_records", -1), 0);
}

// Sequential request/response on one connection must not stall on Nagle
// plus delayed ACK: a frame written as two small sends parks its second half
// until the peer ACKs the first, ~40 ms per direction per round trip on
// loopback. 50 pings then take seconds; written whole, with TCP_NODELAY on
// both ends, they take milliseconds.
TEST(ServerTest, SequentialRoundTripsAreNotAckDelayed) {
  Daemon daemon;
  Client client = daemon.Connect();
  ASSERT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Ok(Call(client, R"({"verb":"ping"})"))) << "ping " << i;
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms for 50 sequential pings";
}

TEST(ServerTest, ProtocolErrorsKeepTheConnectionUsable) {
  Daemon daemon;
  Client client = daemon.Connect();

  // Malformed JSON: clean error, connection survives.
  JsonValue garbage = Call(client, "{this is not json");
  EXPECT_FALSE(Ok(garbage));
  EXPECT_EQ(ErrorCode(garbage), "INVALID_ARGUMENT");

  // Unknown verb: same.
  JsonValue unknown = Call(client, R"({"verb":"launch_missiles"})");
  EXPECT_FALSE(Ok(unknown));
  EXPECT_EQ(ErrorCode(unknown), "INVALID_ARGUMENT");

  // Non-object root: same.
  JsonValue array_root = Call(client, R"([1,2,3])");
  EXPECT_FALSE(Ok(array_root));

  // Missing / malformed request fields on a real verb: same.
  JsonValue no_dir = Call(client, R"({"verb":"select","mbr":[0,0,1,1],"time":[0,1]})");
  EXPECT_FALSE(Ok(no_dir));
  EXPECT_EQ(ErrorCode(no_dir), "INVALID_ARGUMENT");
  JsonValue bad_mbr = Call(client, R"({"verb":"select","dir":"/x","mbr":[0,0],"time":[0,1]})");
  EXPECT_FALSE(Ok(bad_mbr));

  // After all of that, the same connection still serves a healthy request.
  EXPECT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
}

TEST(ServerTest, OversizedFrameGetsErrorThenClose) {
  ServerOptions options;
  options.max_frame_bytes = 128;
  Daemon daemon(options);
  Client client = daemon.Connect();

  std::string huge = R"({"verb":"ping","pad":")" + std::string(500, 'p') + "\"}";
  JsonValue refused = Call(client, huge);
  EXPECT_FALSE(Ok(refused));
  EXPECT_EQ(ErrorCode(refused), "INVALID_ARGUMENT");

  // Oversized frames are protocol-fatal: the server hung up after the error.
  auto after = client.Call(R"({"verb":"ping"})");
  EXPECT_FALSE(after.ok());
}

// A client that hangs up (RST) before its response is written must cost the
// daemon ONE connection, never the process or other clients' service. The
// deterministic SIGPIPE pin is FrameTest.WriteToClosedPeerIsIOErrorNotSigpipe
// in protocol_test.cc; this covers the full server path under a hostile
// disconnect.
TEST(ServerTest, ClientHangupBeforeResponseDoesNotKillTheDaemon) {
  Daemon daemon;
  for (int round = 0; round < 3; ++round) {
    int fd = RawConnect(daemon.server.port());
    ASSERT_GE(fd, 0);
    // One round trip whose response we deliberately never read...
    ASSERT_TRUE(WriteFrame(fd, R"({"verb":"ping"})").ok());
    pollfd readable{fd, POLLIN, 0};
    ASSERT_GT(::poll(&readable, 1, 2000), 0);
    // ...then a slow request and an immediate hangup. Closing with unread
    // data pending makes the kernel send RST, so the server's response
    // write 150 ms later lands on a dead socket.
    ASSERT_TRUE(WriteFrame(fd, R"({"verb":"ping","sleep_ms":150})").ok());
    // Let the server consume the request and enter its sleep before the
    // hangup, so the RST reliably precedes the response write.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));

    Client alive = daemon.Connect();
    EXPECT_TRUE(Ok(Call(alive, R"({"verb":"ping"})")));
  }
}

// Wire-supplied numbers outside int64 range (or fractional where an integer
// is required) are client errors on every verb — a blind cast would be UB.
TEST(ServerTest, OutOfRangeWireNumbersAreCleanErrors) {
  Daemon daemon;
  Client client = daemon.Connect();
  for (const char* request :
       {R"({"verb":"ping","sleep_ms":1e300})",
        R"({"verb":"ping","sleep_ms":2.5})",
        R"({"verb":"select","dir":"/x","mbr":[0,0,1,1],"time":[0,1e300]})",
        R"({"verb":"select","dir":"/x","mbr":[0,0,1,1],"time":[-1e300,0]})",
        R"({"verb":"select","dir":"/x","mbr":[0,0,1,1],"time":[0,1],"limit":1e300})",
        R"({"verb":"extract","dir":"/x","mbr":[0,0,1,1],"time":[0,1],"interval":1e19})"}) {
    JsonValue response = Call(client, request);
    EXPECT_FALSE(Ok(response)) << request;
    EXPECT_EQ(ErrorCode(response), "INVALID_ARGUMENT") << request;
  }
  // The connection survived all of it.
  EXPECT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
}

// A long-lived daemon serving short connections must reap handler threads as
// it goes (not only at Shutdown), and must shed connections beyond
// max_connections at accept.
TEST(ServerTest, ConnectionThreadsAreReapedAndTheCapSheds) {
  ServerOptions options;
  options.max_connections = 4;
  Daemon daemon(options);

  // Churn 32 short-lived connections through the daemon, one at a time:
  // each handler sees its hangup and frees its slot before the next
  // connect, so no churned connect is shed at the cap.
  for (int i = 0; i < 32; ++i) {
    {
      Client client = daemon.Connect();
      ASSERT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
    }
    ASSERT_EQ(daemon.AwaitActiveConnectionsAtMost(0), 0u);
  }
  // Every handler has observed its hangup, so the next accept reaps them
  // all; only the new connection's own thread may remain. Without the
  // reaper this reads 33.
  Client fresh = daemon.Connect();
  ASSERT_TRUE(Ok(Call(fresh, R"({"verb":"ping"})")));
  EXPECT_EQ(daemon.server.ConnectionThreadsForTest(), 1u);

  // Fill the remaining slots, then one more connection is over the cap: the
  // server speaks first with RESOURCE_EXHAUSTED and hangs up.
  std::vector<Client> held;
  for (int i = 0; i < 3; ++i) {
    held.push_back(daemon.Connect());
    ASSERT_TRUE(Ok(Call(held.back(), R"({"verb":"ping"})")));
  }
  int extra = RawConnect(daemon.server.port());
  ASSERT_GE(extra, 0);
  auto shed = ReadFrame(extra, 1 << 20);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  auto parsed = ParseJson(*shed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(Ok(*parsed));
  EXPECT_EQ(ErrorCode(*parsed), "RESOURCE_EXHAUSTED");
  auto eof = ReadFrame(extra, 1 << 20);
  EXPECT_FALSE(eof.ok());
  ::close(extra);

  // Dropping a held connection frees a slot for the next client.
  held.pop_back();
  daemon.AwaitActiveConnectionsAtMost(3);
  Client admitted = daemon.Connect();
  EXPECT_TRUE(Ok(Call(admitted, R"({"verb":"ping"})")));
}

TEST(ServerTest, SelectServesRowsAndWarmCacheHits) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  Daemon daemon;
  Client client = daemon.Connect();

  std::string request = SelectRequest(staged.dir(), 0, 100000);
  JsonValue cold = Call(client, request);
  ASSERT_TRUE(Ok(cold)) << ErrorCode(cold);
  int64_t count = cold.GetInt("count", -1);
  ASSERT_GT(count, 0);
  const JsonValue* rows = cold.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->IsArray());
  EXPECT_EQ(static_cast<int64_t>(rows->array.size()), count);
  // Row shape: the fields st4ml_client prints.
  EXPECT_GE(rows->array[0].GetInt("id", -1), 0);
  EXPECT_GE(rows->array[0].GetInt("time", -1), 0);
  // The cold request did real I/O.
  EXPECT_GT(Metric(cold, "cache_misses"), 0);
  EXPECT_GT(Metric(cold, "stpq_bytes_read"), 0);

  // Same query again: served from the session's warm cache, zero disk.
  JsonValue warm = Call(client, request);
  ASSERT_TRUE(Ok(warm));
  EXPECT_EQ(warm.GetInt("count", -1), count);
  EXPECT_GT(Metric(warm, "cache_hits"), 0);
  EXPECT_EQ(Metric(warm, "cache_misses"), 0);
  EXPECT_EQ(Metric(warm, "stpq_bytes_read"), 0);

  // The limit caps rows but not count.
  JsonValue limited = Call(client, SelectRequest(staged.dir(), 0, 100000, 5));
  ASSERT_TRUE(Ok(limited));
  EXPECT_EQ(limited.GetInt("count", -1), count);
  EXPECT_EQ(limited.Find("rows")->array.size(), 5u);

  // limit=0 is the count-only fast path: same count, no rows at all.
  JsonValue count_only =
      Call(client, SelectRequest(staged.dir(), 0, 100000, 0));
  ASSERT_TRUE(Ok(count_only));
  EXPECT_EQ(count_only.GetInt("count", -1), count);
  EXPECT_TRUE(count_only.Find("rows")->array.empty());

  // A dir that does not exist is a client error, not a dead daemon.
  JsonValue missing = Call(client, SelectRequest("/nonexistent/st4ml", 0, 1));
  EXPECT_FALSE(Ok(missing));
  EXPECT_NE(ErrorCode(missing), "");
  EXPECT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
}

// lookup_id pinned against the select reference: the ids the daemon served
// for a full-window select must come back, record for record, through the
// id-directed verb — with and without a spatio-temporal box.
TEST(ServerTest, LookupIdMatchesSelectReference) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  Daemon daemon;
  Client client = daemon.Connect();

  JsonValue all = Call(client, SelectRequest(staged.dir(), 0, 100000));
  ASSERT_TRUE(Ok(all));
  const JsonValue* rows = all.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_FALSE(rows->array.empty());
  // Per-id record counts from the reference selection.
  std::map<int64_t, int64_t> by_id;
  for (const JsonValue& row : rows->array) ++by_id[row.GetInt("id", -1)];
  std::vector<int64_t> wanted;
  for (const auto& [id, n] : by_id) {
    wanted.push_back(id);
    if (wanted.size() == 3) break;
  }
  ASSERT_EQ(wanted.size(), 3u);
  int64_t expected = 0;
  for (int64_t id : wanted) expected += by_id[id];

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                R"({"verb":"lookup_id","dir":"%s","ids":[%lld,%lld,%lld],)"
                R"("limit":100000})",
                staged.dir().c_str(), static_cast<long long>(wanted[0]),
                static_cast<long long>(wanted[1]),
                static_cast<long long>(wanted[2]));
  JsonValue looked = Call(client, buf);
  ASSERT_TRUE(Ok(looked)) << ErrorCode(looked);
  EXPECT_EQ(looked.GetInt("count", -1), expected);
  const JsonValue* id_rows = looked.Find("rows");
  ASSERT_NE(id_rows, nullptr);
  for (const JsonValue& row : id_rows->array) {
    int64_t id = row.GetInt("id", -1);
    EXPECT_TRUE(std::find(wanted.begin(), wanted.end(), id) != wanted.end())
        << "lookup_id returned a record for unrequested id " << id;
  }

  // With a box the id predicate composes: a narrower window returns a
  // subset, never extra records.
  std::snprintf(buf, sizeof(buf),
                R"({"verb":"lookup_id","dir":"%s","ids":[%lld,%lld,%lld],)"
                R"("mbr":[0,0,100,100],"time":[0,50000],"limit":100000})",
                staged.dir().c_str(), static_cast<long long>(wanted[0]),
                static_cast<long long>(wanted[1]),
                static_cast<long long>(wanted[2]));
  JsonValue boxed = Call(client, buf);
  ASSERT_TRUE(Ok(boxed)) << ErrorCode(boxed);
  EXPECT_LE(boxed.GetInt("count", -1), expected);
  EXPECT_GE(boxed.GetInt("count", -1), 0);
}

TEST(ServerTest, LookupIdValidatesItsIds) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  Daemon daemon;
  Client client = daemon.Connect();

  char prefix[256];
  std::snprintf(prefix, sizeof(prefix), R"({"verb":"lookup_id","dir":"%s")",
                staged.dir().c_str());
  const std::string base(prefix);
  for (const std::string& request :
       {base + "}",                         // ids missing entirely
        base + R"(,"ids":[]})",             // empty array
        base + R"(,"ids":"7"})",            // wrong type
        base + R"(,"ids":[1,"two"]})",      // non-numeric entry
        base + R"(,"ids":[1.5]})",          // fractional
        base + R"(,"ids":[1e300]})"}) {     // out of int64 range
    JsonValue response = Call(client, request);
    EXPECT_FALSE(Ok(response)) << request;
    EXPECT_EQ(ErrorCode(response), "INVALID_ARGUMENT") << request;
  }
  // The connection survived the abuse.
  EXPECT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
}

// stats reports which datasets the daemon has served, whether their `.stix`
// sidecars are present, and the planner's per-file decisions.
TEST(ServerTest, StatsListsServedDatasetsAndPlannerCounters) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  Daemon daemon;
  Client client = daemon.Connect();

  JsonValue cold = Call(client, SelectRequest(staged.dir(), 0, 100000));
  ASSERT_TRUE(Ok(cold));
  // The daemon runs with its cache enabled, so the planner routes every
  // file through the cached-index plan (DESIGN.md §12 decision tree).
  EXPECT_GT(Metric(cold, "planner_cached_index"), 0);
  EXPECT_EQ(Metric(cold, "planner_mmap_index"), 0);

  JsonValue stats = Call(client, R"({"verb":"stats"})");
  ASSERT_TRUE(Ok(stats));
  const JsonValue* datasets = stats.Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_TRUE(datasets->IsArray());
  bool found = false;
  for (const JsonValue& row : datasets->array) {
    if (row.GetString("dir", "") != staged.dir()) continue;
    found = true;
    int64_t stpq = row.GetInt("stpq_files", -1);
    EXPECT_GT(stpq, 0);
    // Ingest bulk-loads one sidecar per part file.
    EXPECT_EQ(row.GetInt("stix_files", -1), stpq);
  }
  EXPECT_TRUE(found) << "served dataset missing from stats";
  const JsonValue* metrics = stats.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->GetInt("planner_cached_index", -1), 0);
  EXPECT_GE(metrics->GetInt("index_files_mmapped", -1), 0);
  EXPECT_GE(metrics->GetInt("postings_hits", -1), 0);
}

TEST(ServerTest, ExtractBinsPartitionTheSelection) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  Daemon daemon;
  Client client = daemon.Connect();

  JsonValue selected = Call(client, SelectRequest(staged.dir(), 0, 100000));
  ASSERT_TRUE(Ok(selected));
  int64_t count = selected.GetInt("count", -1);

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                R"({"verb":"extract","dir":"%s","mbr":[0,0,100,100],)"
                R"("time":[0,100000],"interval":25000})",
                staged.dir().c_str());
  JsonValue extracted = Call(client, buf);
  ASSERT_TRUE(Ok(extracted)) << ErrorCode(extracted);
  // Bin layout comes from the query's time range: 100000 / 25000 = 4 bins.
  EXPECT_EQ(extracted.GetInt("num_bins", -1), 4);
  const JsonValue* bins = extracted.Find("bins");
  ASSERT_NE(bins, nullptr);
  int64_t total = 0;
  for (const JsonValue& bin : bins->array) total += bin.GetInt("count", 0);
  // Every selected record lands in exactly one bin.
  EXPECT_EQ(total, count);
  EXPECT_EQ(extracted.GetInt("count", -1), count);
}

// The acceptance-criteria pin: >= 8 concurrent clients, each running a
// DIFFERENT query, each receiving its own job's metrics delta. The
// concurrent responses must match a serial replay of the same queries
// exactly — count AND per-job selection_records_out — which fails if any
// job's counters bleed into a neighbor's.
TEST(ServerTest, EightConcurrentClientsGetIsolatedPerJobMetrics) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  ServerOptions options;
  options.max_inflight = 8;
  Daemon daemon(options);

  constexpr int kClients = 8;
  struct Result {
    bool ok = false;
    int64_t count = -1;
    int64_t records_out = -1;
  };
  std::vector<Result> concurrent(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = daemon.Connect();
      // Distinct temporal windows → distinct result sizes per client.
      JsonValue response =
          Call(client, SelectRequest(staged.dir(), 0, 12500 * (i + 1)));
      concurrent[i].ok = Ok(response);
      concurrent[i].count = response.GetInt("count", -1);
      concurrent[i].records_out = Metric(response, "selection_records_out");
    });
  }
  for (auto& t : threads) t.join();

  // Serial replay: the ground truth each concurrent response must match.
  Client replay = daemon.Connect();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(concurrent[i].ok) << "client " << i;
    JsonValue serial =
        Call(replay, SelectRequest(staged.dir(), 0, 12500 * (i + 1)));
    ASSERT_TRUE(Ok(serial));
    EXPECT_EQ(concurrent[i].count, serial.GetInt("count", -1))
        << "client " << i << " count diverged under concurrency";
    EXPECT_EQ(concurrent[i].records_out,
              Metric(serial, "selection_records_out"))
        << "client " << i << " leaked a sibling job's counters";
  }
  // The widest window sees more records than the narrowest (the queries
  // really were different work).
  EXPECT_GT(concurrent[kClients - 1].count, concurrent[0].count);

  JsonValue stats = Call(replay, R"({"verb":"stats"})");
  EXPECT_GE(stats.GetInt("jobs_started", -1), kClients * 2);
}

TEST(ServerTest, RateLimitShedsJobVerbsButNotHealthChecks) {
  testing::CacheWorkload w = ServeWorkload();
  testing::StagedWorkload staged(w);
  ServerOptions options;
  options.rate_qps = 0.001;  // no meaningful refill within the test
  options.rate_burst = 1;
  Daemon daemon(options);
  Client client = daemon.Connect();

  JsonValue first = Call(client, SelectRequest(staged.dir(), 0, 100000));
  EXPECT_TRUE(Ok(first));

  JsonValue shed = Call(client, SelectRequest(staged.dir(), 0, 100000));
  EXPECT_FALSE(Ok(shed));
  EXPECT_EQ(ErrorCode(shed), "RESOURCE_EXHAUSTED");

  // ping and stats bypass the bucket: health stays observable under load.
  EXPECT_TRUE(Ok(Call(client, R"({"verb":"ping"})")));
  EXPECT_TRUE(Ok(Call(client, R"({"verb":"stats"})")));
}

TEST(ServerTest, GracefulShutdownDrainsInflightRequests) {
  Daemon daemon;
  std::atomic<bool> connected{false};
  std::atomic<bool> got_response{false};
  std::thread slow([&] {
    Client client = daemon.Connect();
    connected = true;
    // In flight for ~400 ms while Shutdown runs.
    JsonValue response = Call(client, R"({"verb":"ping","sleep_ms":400})");
    got_response = Ok(response);
  });
  while (!connected) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  daemon.server.Shutdown();  // must drain, not drop, the sleeping ping
  slow.join();
  EXPECT_TRUE(got_response.load());

  // After shutdown the port no longer accepts connections.
  auto refused = Client::Connect(daemon.server.port());
  EXPECT_FALSE(refused.ok());
}

TEST(ServerTest, ShutdownVerbSignalsTheDaemonLoop) {
  Daemon daemon;
  // Nothing requested yet: the wait times out false.
  EXPECT_FALSE(daemon.server.WaitShutdownRequested(50));

  Client client = daemon.Connect();
  JsonValue response = Call(client, R"({"verb":"shutdown"})");
  EXPECT_TRUE(Ok(response));
  // The daemon's main loop observes the request and calls Shutdown itself.
  EXPECT_TRUE(daemon.server.WaitShutdownRequested(2000));
  daemon.server.Shutdown();
}

}  // namespace
}  // namespace server
}  // namespace st4ml
