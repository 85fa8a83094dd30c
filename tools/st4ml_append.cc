// st4ml_append: streams an event CSV (id,x,y,time,attr) from stdin into a
// running st4mld daemon as batched `append` verbs. The daemon stages each
// batch in the directory's write-ahead log before answering, so a batch the
// tool reports as acked survives a daemon SIGKILL and is replayed on
// restart. With --flush the staged tail is compacted into indexed
// partitions at EOF; without it the tail stays in the WAL and is still
// served by mid-stream selects.
//
//   st4ml_datagen | st4ml_append --port=7878 --dir=stpq_store
//       [--batch=512] [--flush]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "server/client.h"
#include "storage/json.h"
#include "storage/text_import.h"
#include "tool_flags.h"
#include "tool_main.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: st4ml_append --port=PORT --dir=DIR [--batch=512] "
               "[--flush] < events.csv\n");
  return 2;
}

std::string RecordJson(const st4ml::EventRecord& record) {
  st4ml::JsonObject row;
  row.Add("id", record.id);
  row.Add("x", record.x);
  row.Add("y", record.y);
  row.Add("time", record.time);
  if (!record.attr.empty()) row.Add("attr", record.attr);
  return row.Str();
}

// One framed round trip; OK only if the daemon answered ok. The daemon only
// acks an append after the records hit the WAL, so an OK return here IS
// the durability ack for the whole batch.
st4ml::Status CallOk(st4ml::server::Client& client, const std::string& request,
                     std::string* response_out) {
  auto response = client.Call(request);
  if (!response.ok()) return response.status();
  if (response->rfind("{\"ok\":true", 0) != 0) {
    return st4ml::Status::IOError("daemon refused: " + *response);
  }
  if (response_out != nullptr) *response_out = *response;
  return st4ml::Status::Ok();
}

st4ml::Status SendBatch(st4ml::server::Client& client, const std::string& dir,
                        std::vector<std::string>& rows) {
  if (rows.empty()) return st4ml::Status::Ok();
  std::string array = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) array += ",";
    array += rows[i];
  }
  array += "]";
  st4ml::JsonObject request;
  request.Add("verb", "append").Add("dir", dir);
  request.AddRaw("records", array);
  ST4ML_RETURN_IF_ERROR(CallOk(client, request.Str(), nullptr));
  rows.clear();
  return st4ml::Status::Ok();
}

int Run(int argc, char** argv) {
  st4ml::tools::Flags flags(argc, argv);
  int port = static_cast<int>(flags.GetInt("port", 0));
  std::string dir = flags.GetString("dir", "");
  int64_t batch = flags.GetInt("batch", 512);
  if (!st4ml::tools::CheckIntFlags(flags, "st4ml_append")) return 2;
  if (port <= 0 || dir.empty() || batch <= 0) return Usage();

  auto client = st4ml::server::Client::Connect(port);
  if (!client.ok()) {
    std::fprintf(stderr, "st4ml_append: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> rows;
  rows.reserve(static_cast<size_t>(batch));
  uint64_t appended = 0;
  auto send = [&] {
    uint64_t sent = rows.size();
    ST4ML_RETURN_IF_ERROR(SendBatch(*client, dir, rows));
    appended += sent;
    return st4ml::Status::Ok();
  };
  st4ml::Status status = st4ml::ReadEventsCsv(
      std::cin, "stdin", [&](st4ml::EventRecord record) {
        rows.push_back(RecordJson(record));
        if (rows.size() < static_cast<size_t>(batch)) {
          return st4ml::Status::Ok();
        }
        return send();
      });
  if (status.ok()) status = send();
  std::string flushed;
  if (status.ok() && flags.Has("flush")) {
    st4ml::JsonObject request;
    request.Add("verb", "flush").Add("dir", dir);
    status = CallOk(*client, request.Str(), &flushed);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "st4ml_append: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!flushed.empty()) {
    std::fprintf(stderr, "st4ml_append: flushed: %s\n", flushed.c_str());
  }
  std::fprintf(stderr, "st4ml_append: appended %llu events to %s\n",
               static_cast<unsigned long long>(appended), dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return st4ml::tools::ToolMain("st4ml_append",
                                [&] { return Run(argc, argv); });
}
