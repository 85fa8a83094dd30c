#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <shared_mutex>
#include <utility>

#include "accel/kernels.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "extraction/collective_extractors.h"
#include "index/stix.h"
#include "selection/select_query.h"
#include "selection/selector.h"
#include "server/frame.h"
#include "storage/json.h"

namespace st4ml {
namespace server {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kNotFound: return "NOT_FOUND";
    case Status::Code::kCorruption: return "CORRUPTION";
    case Status::Code::kIOError: return "IO_ERROR";
    case Status::Code::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::Code::kInternal: return "INTERNAL";
    case Status::Code::kResourceExhausted: return "RESOURCE_EXHAUSTED";
  }
  return "INTERNAL";
}

std::string ErrorResponse(const Status& status) {
  JsonObject obj;
  obj.Add("ok", false)
      .Add("code", CodeName(status.code()))
      .Add("error", status.message());
  return obj.Str();
}

/// The per-job counter subset worth shipping to a client: enough to verify
/// cache behavior (the CI smoke asserts cache_hits > 0 on the second
/// request), record flow, and which plan the planner actually executed per
/// file, without dumping every slot per response.
std::string MetricsJson(const MetricsSnapshot& m) {
  JsonObject obj;
  obj.Add("cache_hits", m[Counter::kCacheHits])
      .Add("cache_misses", m[Counter::kCacheMisses])
      .Add("stpq_bytes_read", m[Counter::kStpqBytesRead])
      .Add("stpq_read_calls", m[Counter::kStpqReadCalls])
      .Add("partitions_pruned", m[Counter::kPartitionsPruned])
      .Add("partitions_scanned", m[Counter::kPartitionsScanned])
      .Add("selection_records_out", m[Counter::kSelectionRecordsOut])
      .Add("parallel_jobs", m[Counter::kParallelJobs])
      .Add("index_files_mmapped", m[Counter::kIndexFilesMmapped])
      .Add("index_pages_read", m[Counter::kIndexPagesRead])
      .Add("postings_hits", m[Counter::kPostingsHits])
      .Add("planner_mmap_index", m[Counter::kPlannerMmapIndex])
      .Add("planner_cached_index", m[Counter::kPlannerCachedIndex])
      .Add("planner_linear_scan", m[Counter::kPlannerLinearScan]);
  return obj.Str();
}

/// Largest id list a lookup_id/select request may carry — bounds the memory
/// one frame can pin before any work starts.
constexpr size_t kMaxRequestIds = 65536;

/// Largest record batch one append frame may carry, for the same reason.
constexpr size_t kMaxAppendRecords = 65536;

/// Most bins one extract request may ask for (a year of 10-minute bins is
/// 52,560), so a wide time range over a tiny interval cannot make the
/// daemon allocate without limit.
constexpr uint64_t kMaxExtractBins = 65536;

/// How many bins TemporalSliding cuts `range` into at `interval_s` > 0:
/// ceil(span / interval), at least one, and none for an inverted range. The
/// span is taken in unsigned arithmetic, so no int64 range can overflow it.
uint64_t ExtractBinCount(const Duration& range, int64_t interval_s) {
  if (range.end() < range.start()) return 0;
  const uint64_t span = static_cast<uint64_t>(range.end()) -
                        static_cast<uint64_t>(range.start());
  return span == 0 ? 1 : (span - 1) / static_cast<uint64_t>(interval_s) + 1;
}

/// Parses the shared job-verb query fields into the ONE SelectQuery type.
/// `require_box` is set for select/extract (mbr+time mandatory, unchanged
/// wire contract); lookup_id passes false — omitting both means the id
/// predicate alone drives selection, but a client that sends either of
/// mbr/time must send a complete, valid box.
Status ParseQuery(const JsonValue& request, bool require_box,
                  std::string* dir, SelectQuery* query) {
  *dir = request.GetString("dir", "");
  if (dir->empty()) {
    return Status::InvalidArgument("missing required field 'dir'");
  }
  *query = SelectQuery();
  if (require_box || request.Find("mbr") != nullptr ||
      request.Find("time") != nullptr) {
    std::vector<double> mbr;
    std::vector<double> time;
    ST4ML_RETURN_IF_ERROR(request.GetNumberArray("mbr", 4, &mbr));
    ST4ML_RETURN_IF_ERROR(request.GetNumberArray("time", 2, &time));
    // The wire carries doubles; casting e.g. 1e300 to int64_t is UB, so the
    // bounds are validated before the cast ([-2^63, 2^63) — the double-exact
    // range; INT64_MAX itself is not representable).
    for (double t : time) {
      if (t < -9223372036854775808.0 || t >= 9223372036854775808.0 ||
          t != std::floor(t)) {
        return Status::InvalidArgument(
            "'time' values must be integers in int64 range");
      }
    }
    query->box = STBox(Mbr(mbr[0], mbr[1], mbr[2], mbr[3]),
                       Duration(static_cast<int64_t>(time[0]),
                                static_cast<int64_t>(time[1])));
  } else {
    query->box = SelectQuery::EverythingBox();
  }
  std::vector<int64_t> ids;
  ST4ML_RETURN_IF_ERROR(request.GetCheckedIntArray("ids", kMaxRequestIds, &ids));
  if (!ids.empty()) query->SetIds(std::move(ids));
  return Status::Ok();
}

/// The one way select, lookup_id and extract read `dir`: the merged read
/// of its `index.meta` parts plus the staged WAL tail. With a live Ingestor
/// its snapshot lock (shared) spans the whole selection, so the compactor
/// cannot delete a listed segment mid-read.
StatusOr<Dataset<EventRecord>> SelectDir(Selector<EventRecord>* selector,
                                         const std::string& dir,
                                         Ingestor* live) {
  std::shared_lock<std::shared_mutex> snapshot;
  if (live != nullptr) {
    snapshot = std::shared_lock<std::shared_mutex>(live->snapshot_mu());
  }
  return selector->Select(dir, dir + "/index.meta");
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Server::Server(Session* session, ServerOptions options)
    : session_(session),
      options_(options),
      admission_(options.max_inflight, options.queue_depth),
      rate_limiter_(options.rate_qps, options.rate_burst) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status =
        Status::IOError(std::string("bind 127.0.0.1:") +
                        std::to_string(options_.port) + ": " +
                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // Non-blocking listener + self-pipe: the accept loop polls both, so
  // Shutdown wakes it portably (shutdown(2) on a listening socket is
  // Linux-only behavior) and a connection that vanishes between poll and
  // accept just returns EAGAIN instead of blocking forever.
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
  if (::pipe(wake_pipe_) < 0) {
    Status status =
        Status::IOError(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Shutdown's wake byte.
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return;
    }
    // Request/response on one connection: without TCP_NODELAY a reply that
    // follows a not-yet-ACKed one waits on the peer's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Each accept doubles as the reap point for handler threads that
    // finished since the last one — a churny daemon stays at O(live
    // connections) threads instead of one per connection ever served.
    ReapFinishedThreads();
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      if (open_fds_.size() >= options_.max_connections) {
        shed = true;
      } else {
        uint64_t conn_id = next_conn_id_++;
        open_fds_.insert(fd);
        conn_threads_.emplace(
            conn_id,
            std::thread([this, conn_id, fd] { HandleConnection(conn_id, fd); }));
      }
    }
    if (shed) {
      // Over the connection cap: tell the client why, then hang up. Written
      // outside mu_ — a slow reader must not block the whole server.
      WriteFrame(fd, ErrorResponse(Status::ResourceExhausted(
                         "too many connections (limit " +
                         std::to_string(options_.max_connections) + ")")));
      ::close(fd);
    }
  }
}

void Server::ReapFinishedThreads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(finished_threads_);
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void Server::HandleConnection(uint64_t conn_id, int fd) {
  for (;;) {
    StatusOr<std::string> frame = ReadFrame(fd, options_.max_frame_bytes);
    if (!frame.ok()) {
      // Oversized declared length: tell the client why before hanging up.
      // Everything else (clean close, truncation, reset) is just the end
      // of the connection.
      if (frame.status().code() == Status::Code::kInvalidArgument) {
        WriteFrame(fd, ErrorResponse(frame.status()));
      }
      break;
    }
    bool close_after = false;
    std::string response = HandleRequest(*frame, &close_after);
    if (!WriteFrame(fd, response).ok()) break;
    if (close_after) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  open_fds_.erase(fd);
  ::close(fd);
  // Move this thread's own handle to the finished list for the accept loop
  // (or Shutdown) to join — a thread cannot join itself. Skipped during
  // Shutdown, which is already joining the conn_threads_ map it swapped out.
  auto it = conn_threads_.find(conn_id);
  if (it != conn_threads_.end()) {
    finished_threads_.push_back(std::move(it->second));
    conn_threads_.erase(it);
  }
}

std::string Server::HandleRequest(const std::string& payload,
                                  bool* close_after) {
  *close_after = false;
  StatusOr<JsonValue> parsed = ParseJson(payload);
  // Malformed JSON is a clean error and the connection STAYS OPEN — a
  // client bug in one request shouldn't tear down its session.
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (!parsed->IsObject()) {
    return ErrorResponse(
        Status::InvalidArgument("request must be a JSON object"));
  }
  std::string verb = parsed->GetString("verb", "");

  if (verb == "ping") {
    int64_t sleep_ms = 0;
    Status status = parsed->GetCheckedInt("sleep_ms", 0, 0, 5000, &sleep_ms);
    if (!status.ok()) return ErrorResponse(status);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    JsonObject obj;
    obj.Add("ok", true).Add("verb", "ping");
    return obj.Str();
  }
  if (verb == "stats") return HandleStats();
  if (verb == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
    *close_after = true;
    JsonObject obj;
    obj.Add("ok", true).Add("verb", "shutdown");
    return obj.Str();
  }

  if (verb == "ingest_status") return HandleIngestStatus(*parsed);

  if (verb == "select" || verb == "lookup_id" || verb == "extract" ||
      verb == "append" || verb == "flush") {
    if (!rate_limiter_.TryAcquire()) {
      return ErrorResponse(
          Status::ResourceExhausted("request rate limit exceeded"));
    }
    AdmissionTicket ticket(&admission_);
    if (!ticket.admitted()) return ErrorResponse(ticket.status());
    // A job that throws (a task failing under a value-returning Dataset
    // transform) answers this request with its error; it must not unwind
    // the connection thread and terminate the daemon.
    try {
      if (verb == "extract") return HandleExtract(*parsed);
      if (verb == "append") return HandleAppend(*parsed);
      if (verb == "flush") return HandleFlush(*parsed);
      return HandleSelect(*parsed, /*lookup_by_id=*/verb == "lookup_id");
    } catch (const StatusError& e) {
      return ErrorResponse(e.status());
    } catch (const std::exception& e) {
      return ErrorResponse(Status::Internal(e.what()));
    }
  }

  return ErrorResponse(
      Status::InvalidArgument("unknown verb '" + verb + "'"));
}

void Server::RecordServedDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  served_dirs_.insert(dir);
}

std::string Server::HandleStats() {
  MetricsSnapshot m = session_->Metrics();
  const accel::BackendRegistry& accel = accel::BackendRegistry::Instance();
  // Per-dataset index coverage: for every dir a job verb has served, how
  // many .stpq part files exist and how many of them have a .stix sidecar —
  // the operator's answer to "why is this dataset cold-selecting via linear
  // scan". Walked at stats time (not cached) so a rebuilt index shows up
  // without a daemon restart. std::map keeps the listing deterministic.
  std::map<std::string, std::pair<uint64_t, uint64_t>> datasets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& dir : served_dirs_) datasets[dir] = {0, 0};
  }
  for (auto& [dir, counts] : datasets) {
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) continue;
    for (const auto& entry : it) {
      if (entry.path().extension() != ".stpq") continue;
      ++counts.first;
      std::error_code exists_ec;
      if (std::filesystem::exists(StixPathFor(entry.path().string()),
                                  exists_ec)) {
        ++counts.second;
      }
    }
  }
  std::string dataset_rows = "[";
  bool first = true;
  for (const auto& [dir, counts] : datasets) {
    JsonObject row;
    row.Add("dir", dir)
        .Add("stpq_files", counts.first)
        .Add("stix_files", counts.second);
    if (!first) dataset_rows += ",";
    dataset_rows += row.Str();
    first = false;
  }
  dataset_rows += "]";

  JsonObject obj;
  obj.Add("ok", true)
      .Add("verb", "stats")
      .Add("jobs_started", session_->jobs_started())
      .Add("inflight", static_cast<uint64_t>(admission_.inflight()))
      // Which kernel backend this daemon computes on, and how much of the
      // work actually went through the batch box filter — the first thing
      // to check when a warm deployment is slower than the bench says it
      // should be.
      .Add("backend", accel.active_name())
      .Add("backend_batches", accel.batches())
      .Add("backend_batch_records", accel.batch_records())
      .AddRaw("datasets", dataset_rows)
      .AddRaw("metrics", MetricsJson(m));
  return obj.Str();
}

Ingestor* Server::FindIngestor(const std::string& dir) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  auto it = ingestors_.find(dir);
  return it == ingestors_.end() ? nullptr : it->second.get();
}

StatusOr<Ingestor*> Server::IngestorFor(const std::string& dir) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  auto it = ingestors_.find(dir);
  if (it != ingestors_.end()) return it->second.get();
  auto opened =
      Ingestor::Open(dir, IngestorOptions{}, session_->context().get());
  if (!opened.ok()) return opened.status();
  Ingestor* raw = opened->get();
  ingestors_.emplace(dir, std::move(*opened));
  return raw;
}

std::string Server::HandleAppend(const JsonValue& request) {
  auto start = std::chrono::steady_clock::now();
  std::string dir = request.GetString("dir", "");
  if (dir.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing required field 'dir'"));
  }
  const JsonValue* records = request.Find("records");
  if (records == nullptr || !records->IsArray() || records->array.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "'records' must be a non-empty array of record objects"));
  }
  if (records->array.size() > kMaxAppendRecords) {
    return ErrorResponse(Status::InvalidArgument(
        "'records' exceeds the per-request limit of " +
        std::to_string(kMaxAppendRecords)));
  }
  std::vector<EventRecord> batch;
  batch.reserve(records->array.size());
  for (const JsonValue& row : records->array) {
    if (!row.IsObject()) {
      return ErrorResponse(
          Status::InvalidArgument("each record must be a JSON object"));
    }
    EventRecord r;
    Status status = row.GetCheckedInt("id", 0, INT64_MIN, INT64_MAX, &r.id);
    if (status.ok() && row.Find("id") == nullptr) {
      status = Status::InvalidArgument("record missing required field 'id'");
    }
    if (status.ok()) {
      status = row.GetCheckedInt("time", 0, INT64_MIN, INT64_MAX, &r.time);
    }
    if (status.ok() && row.Find("time") == nullptr) {
      status = Status::InvalidArgument("record missing required field 'time'");
    }
    if (!status.ok()) return ErrorResponse(status);
    const JsonValue* x = row.Find("x");
    const JsonValue* y = row.Find("y");
    if (x == nullptr || !x->IsNumber() || y == nullptr || !y->IsNumber()) {
      return ErrorResponse(
          Status::InvalidArgument("record fields 'x' and 'y' must be numbers"));
    }
    r.x = x->number_value;
    r.y = y->number_value;
    r.attr = row.GetString("attr", "");
    batch.push_back(std::move(r));
  }
  RecordServedDir(dir);
  auto ingestor = IngestorFor(dir);
  if (!ingestor.ok()) return ErrorResponse(ingestor.status());
  // AppendBatch is all-or-nothing: an error means NO record of the batch
  // was staged or acked (a partial write is rolled back), so the client
  // can resend the whole batch without duplicating records.
  Status appended = (*ingestor)->AppendBatch(batch);
  if (!appended.ok()) return ErrorResponse(appended);
  JsonObject obj;
  obj.Add("ok", true)
      .Add("verb", "append")
      .Add("appended", static_cast<uint64_t>(batch.size()))
      .Add("elapsed_us", ElapsedUs(start));
  return obj.Str();
}

std::string Server::HandleFlush(const JsonValue& request) {
  auto start = std::chrono::steady_clock::now();
  std::string dir = request.GetString("dir", "");
  if (dir.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing required field 'dir'"));
  }
  auto ingestor = IngestorFor(dir);
  if (!ingestor.ok()) return ErrorResponse(ingestor.status());
  Status flushed = (*ingestor)->Flush();
  if (!flushed.ok()) return ErrorResponse(flushed);
  IngestorStats stats = (*ingestor)->Stats();
  JsonObject obj;
  obj.Add("ok", true)
      .Add("verb", "flush")
      .Add("compacted", stats.compacted)
      .Add("generation", stats.generation)
      .Add("elapsed_us", ElapsedUs(start));
  return obj.Str();
}

std::string Server::HandleIngestStatus(const JsonValue& request) {
  std::string dir = request.GetString("dir", "");
  if (dir.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing required field 'dir'"));
  }
  auto ingestor = IngestorFor(dir);
  if (!ingestor.ok()) return ErrorResponse(ingestor.status());
  IngestorStats stats = (*ingestor)->Stats();
  JsonObject obj;
  obj.Add("ok", true)
      .Add("verb", "ingest_status")
      .Add("appended", stats.appended)
      .Add("replayed", stats.replayed)
      .Add("staged", stats.staged)
      .Add("compacted", stats.compacted)
      .Add("compactions", stats.compactions)
      .Add("wal_segments", stats.wal_segments)
      .Add("generation", stats.generation)
      // What a crash-recovery check wants in ONE number: every record this
      // directory must serve right now.
      .Add("total", stats.staged + stats.compacted);
  return obj.Str();
}

std::string Server::HandleSelect(const JsonValue& request, bool lookup_by_id) {
  auto start = std::chrono::steady_clock::now();
  const char* verb = lookup_by_id ? "lookup_id" : "select";
  std::string dir;
  SelectQuery query;
  Status status =
      ParseQuery(request, /*require_box=*/!lookup_by_id, &dir, &query);
  if (!status.ok()) return ErrorResponse(status);
  if (lookup_by_id && !query.has_ids) {
    return ErrorResponse(
        Status::InvalidArgument("missing required field 'ids'"));
  }
  int64_t limit = 0;
  status = request.GetCheckedInt("limit", 100, 0, INT64_MAX, &limit);
  if (!status.ok()) return ErrorResponse(status);
  query.limit = limit;
  query.count_only = limit == 0;
  RecordServedDir(dir);

  Job job = session_->StartJob(lookup_by_id ? "serve/lookup_id"
                                            : "serve/select");
  Selector<EventRecord> selector(session_->context(), query);
  auto selected = job.Run(
      "selection",
      [&] { return SelectDir(&selector, dir, FindIngestor(dir)); });
  job.Finish();
  if (!job.ok()) return ErrorResponse(job.status());

  // The selector shaped each file's matches (none for limit == 0, else at
  // most `limit` per file, copied out of the cache only when kept), so only
  // those few rows are ordered here.
  const uint64_t count = selector.stats().records_matched;
  const std::vector<EventRecord> records =
      RowsInIdOrder(std::move(*selected), limit);
  std::string rows = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const EventRecord& r = records[i];
    JsonObject row;
    row.Add("id", r.id)
        .Add("x", r.x)
        .Add("y", r.y)
        .Add("time", r.time)
        .Add("attr", r.attr);
    if (i > 0) rows += ",";
    rows += row.Str();
  }
  rows += "]";

  JsonObject obj;
  obj.Add("ok", true)
      .Add("verb", verb)
      .Add("job_id", job.id())
      .Add("count", count)
      .AddRaw("rows", rows)
      .AddRaw("metrics", MetricsJson(job.Metrics()))
      .Add("elapsed_us", ElapsedUs(start));
  return obj.Str();
}

std::string Server::HandleExtract(const JsonValue& request) {
  auto start = std::chrono::steady_clock::now();
  std::string dir;
  SelectQuery query;
  Status status = ParseQuery(request, /*require_box=*/true, &dir, &query);
  if (!status.ok()) return ErrorResponse(status);
  int64_t interval_s = 0;
  status = request.GetCheckedInt("interval", 3600, 1, INT64_MAX, &interval_s);
  if (!status.ok()) return ErrorResponse(status);
  if (ExtractBinCount(query.box.time, interval_s) > kMaxExtractBins) {
    return ErrorResponse(Status::InvalidArgument(
        "'time' / 'interval' exceeds the per-request limit of " +
        std::to_string(kMaxExtractBins) + " bins"));
  }
  RecordServedDir(dir);

  Job job = session_->StartJob("serve/extract");
  Selector<EventRecord> selector(session_->context(), query);
  auto selected = job.Run(
      "selection",
      [&] { return SelectDir(&selector, dir, FindIngestor(dir)); });
  if (selected.ok()) {
    // The bin layout comes from the QUERY's time range, not the data's, so
    // the same request always yields the same bins regardless of which
    // records currently match.
    auto structure = std::make_shared<TemporalStructure>(
        TemporalStructure::RegularByInterval(query.box.time, interval_s));
    auto events =
        job.Run("parse", ParseEvents, std::move(*selected));
    TimeSeriesConverter<STEvent> converter(structure);
    auto series = job.Run(
        "conversion",
        [&](const Dataset<STEvent>& parsed) {
          return converter.Convert(parsed);
        },
        events);
    TimeSeries<int64_t> flow = job.Run(
        "extraction",
        [&](const decltype(series)& converted) {
          return ExtractTsFlow(converted);
        },
        series);
    job.Finish();
    if (!job.ok()) return ErrorResponse(job.status());

    std::string bins = "[";
    int64_t total = 0;
    for (size_t i = 0; i < flow.size(); ++i) {
      JsonObject bin;
      bin.Add("bin", static_cast<int64_t>(i))
          .Add("start", flow.bin(i).start())
          .Add("end", flow.bin(i).end())
          .Add("count", flow.value(i));
      if (i > 0) bins += ",";
      bins += bin.Str();
      total += flow.value(i);
    }
    bins += "]";

    JsonObject obj;
    obj.Add("ok", true)
        .Add("verb", "extract")
        .Add("job_id", job.id())
        .Add("count", total)
        .Add("num_bins", static_cast<uint64_t>(flow.size()))
        .AddRaw("bins", bins)
        .AddRaw("metrics", MetricsJson(job.Metrics()))
        .Add("elapsed_us", ElapsedUs(start));
    return obj.Str();
  }
  job.Finish();
  return ErrorResponse(job.status());
}

size_t Server::ActiveConnectionsForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  return open_fds_.size();
}

size_t Server::ConnectionThreadsForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_threads_.size() + finished_threads_.size();
}

bool Server::WaitShutdownRequested(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return shutdown_requested_; });
  return shutdown_requested_;
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Unblock idle connection readers; SHUT_RD only, so a handler that is
    // mid-job can still WRITE its response before its loop exits.
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RD);
  }
  // Queued-but-unadmitted jobs are shed; admitted ones run to completion.
  admission_.Close();
  // One byte down the self-pipe pops the accept loop out of poll().
  if (wake_pipe_[1] >= 0) {
    char byte = 0;
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain every handler: still-live ones (conn_threads_) and ones that
  // finished but were never reaped by an accept (finished_threads_).
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(finished_threads_);
    for (auto& [id, thread] : conn_threads_) threads.push_back(std::move(thread));
    conn_threads_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  // Graceful stop drains the streaming side too: seal + compact every open
  // ingest directory so a clean restart replays nothing. (A SIGKILL skips
  // this, of course — that is exactly what WAL recovery is for.)
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    for (auto& [dir, ingestor] : ingestors_) ingestor->Flush();
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace server
}  // namespace st4ml
