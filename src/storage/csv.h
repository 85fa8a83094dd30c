#ifndef ST4ML_STORAGE_CSV_H_
#define ST4ML_STORAGE_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace st4ml {

/// Writes one CSV file: a header row then `rows`, quoting any field that
/// needs it. Every row must match the header's column count.
Status WriteCsv(const std::string& path, const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

/// Splits ONE CSV line (no trailing newline; a trailing '\r' is tolerated)
/// into fields, undoing WriteCsv's double-quote quoting — the line-at-a-time
/// parse ReadEventsCsv runs on every input line.
std::vector<std::string> SplitCsvLine(const std::string& line);

}  // namespace st4ml

#endif  // ST4ML_STORAGE_CSV_H_
