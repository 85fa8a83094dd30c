#include "storage/text_import.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "storage/csv.h"

namespace st4ml {
namespace {

// Whole-field parses: a trailing suffix ("12abc") or an out-of-range value
// fails instead of yielding a prefix or a clamped number.
bool ParseInt64(const std::string& field, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(field.c_str(), &end, 10);
  if (field.empty() || end != field.c_str() + field.size() || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseFiniteDouble(const std::string& field, double* out) {
  char* end = nullptr;
  double value = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

Status BadField(const char* name, const std::string& context,
                const std::string& field) {
  return Status::Corruption(std::string("bad ") + name + " field in " +
                            context + ": " + field);
}

}  // namespace

StatusOr<EventRecord> ParseEventCsvRow(const std::vector<std::string>& row,
                                       const std::string& context) {
  if (row.size() < 4) {
    return Status::Corruption("event row needs id,x,y,time in " + context);
  }
  EventRecord r;
  if (!ParseInt64(row[0], &r.id)) return BadField("id", context, row[0]);
  if (!ParseFiniteDouble(row[1], &r.x)) return BadField("x", context, row[1]);
  if (!ParseFiniteDouble(row[2], &r.y)) return BadField("y", context, row[2]);
  if (!ParseInt64(row[3], &r.time)) return BadField("time", context, row[3]);
  if (row.size() > 4) r.attr = row[4];
  return r;
}

Status ReadEventsCsv(std::istream& in, const std::string& context,
                     const std::function<Status(EventRecord)>& sink) {
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    if (first && line.rfind("id,", 0) == 0) {
      first = false;
      continue;
    }
    first = false;
    auto record = ParseEventCsvRow(SplitCsvLine(line), context);
    if (!record.ok()) return record.status();
    ST4ML_RETURN_IF_ERROR(sink(std::move(*record)));
  }
  if (in.bad()) return Status::IOError("read error on " + context);
  return Status::Ok();
}

}  // namespace st4ml
