#ifndef ST4ML_STORAGE_TEXT_IMPORT_H_
#define ST4ML_STORAGE_TEXT_IMPORT_H_

#include <functional>
#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/records.h"

namespace st4ml {

/// CSV ingestion for the CLI tools — the path raw datasets take into STPQ.

/// Parses ONE already-split event row (SplitCsvLine output): `id,x,y,time`
/// plus an optional `attr`. Each numeric field must be consumed whole, `id`
/// and `time` must fit int64, and `x`/`y` must be finite; anything else is
/// Corruption, so no record that no query could select is ever stored.
/// `context` names the source in error messages the way a path would.
StatusOr<EventRecord> ParseEventCsvRow(const std::vector<std::string>& row,
                                       const std::string& context);

/// The one reader of event CSV: streams `in` a line at a time and hands each
/// parsed record to `sink` in input order. A first non-blank line starting
/// with `id,` is a header and is skipped, so the same input works with or
/// without one; blank lines are skipped. Stops at the first malformed row
/// (its Corruption) or the first non-OK status `sink` returns, and returns
/// that status; Ok at end of input.
Status ReadEventsCsv(std::istream& in, const std::string& context,
                     const std::function<Status(EventRecord)>& sink);

}  // namespace st4ml

#endif  // ST4ML_STORAGE_TEXT_IMPORT_H_
