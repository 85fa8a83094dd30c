#include "storage/csv.h"

#include <filesystem>
#include <fstream>

#include "storage/atomic_publish.h"

namespace st4ml {
namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void WriteRow(std::ofstream& out, const std::vector<std::string>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out << ',';
    out << QuoteField(row[i]);
  }
  out << '\n';
}

}  // namespace

Status WriteCsv(const std::string& path, const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::error_code ec;
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  WriteRow(out, header);
  for (const auto& row : rows) {
    if (row.size() != header.size()) {
      return Status::InvalidArgument("row width does not match header in " +
                                     path);
    }
    WriteRow(out, row);
  }
  return FlushAndClose(out, path);
}

std::vector<std::string> SplitCsvLine(const std::string& raw) {
  std::string line = raw;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  row.push_back(std::move(field));
  return row;
}

}  // namespace st4ml
