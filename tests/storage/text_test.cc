#include "storage/csv.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/json.h"
#include "storage/text_import.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_text_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(CsvTest, RoundTripWithQuoting) {
  std::string dir = TempDir("csv");
  std::string path = dir + "/out.csv";
  std::vector<std::vector<std::string>> rows = {
      {"1", "plain", "3.5"},
      {"2", "with,comma", "4.5"},
      {"3", "with\"quote", "5.5"},
  };
  ASSERT_TRUE(WriteCsv(path, {"id", "label", "value"}, rows).ok());
  std::ifstream in(path);
  std::vector<std::vector<std::string>> loaded;
  for (std::string line; std::getline(in, line);) {
    loaded.push_back(SplitCsvLine(line));
  }
  ASSERT_EQ(loaded.size(), 4u);  // header + 3 rows
  EXPECT_EQ(loaded[0][1], "label");
  EXPECT_EQ(loaded[2][1], "with,comma");
  EXPECT_EQ(loaded[3][1], "with\"quote");
}

TEST(CsvTest, WidthMismatchIsInvalidArgument) {
  std::string dir = TempDir("width");
  auto status = WriteCsv(dir + "/bad.csv", {"a", "b"}, {{"only-one"}});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
}

TEST(CsvTest, FailedFinalFlushIsAnError) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_EQ(WriteCsv("/dev/full", {"id"}, {{"1"}}).code(),
            Status::Code::kIOError);
}

TEST(JsonTest, ObjectRendering) {
  JsonObject obj;
  obj.Add("name", "st4ml").Add("count", int64_t{42}).Add("ratio", 0.5);
  obj.Add("ok", true).AddRaw("nested", "[1,2]");
  std::string json = obj.Str();
  EXPECT_NE(json.find("\"name\":\"st4ml\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nested\":[1,2]"), std::string::npos) << json;
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  std::string quoted = JsonQuote("a\"b\\c\nd");
  EXPECT_EQ(quoted, "\"a\\\"b\\\\c\\nd\"");
}

// Runs ReadEventsCsv over `text`, collecting the records it hands out.
Status ReadAll(const std::string& text, std::vector<EventRecord>* out) {
  std::istringstream in(text);
  return ReadEventsCsv(in, "test", [out](EventRecord record) {
    out->push_back(std::move(record));
    return Status::Ok();
  });
}

TEST(TextImportTest, EventsCsv) {
  std::vector<EventRecord> events;
  Status status = ReadAll("id,x,y,time,attr\n"
                          "7,-73.99,40.75,1600000000,cab\n"
                          "8,-73.95,40.70,1600000100,\n",
                          &events);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 7);
  EXPECT_DOUBLE_EQ(events[0].x, -73.99);
  EXPECT_EQ(events[0].attr, "cab");
  EXPECT_EQ(events[1].time, 1600000100);
}

// The header row is optional: a headerless stream keeps its first record,
// and blank lines (a trailing CRLF included) are skipped.
TEST(TextImportTest, HeaderlessInputKeepsEveryRow) {
  std::vector<EventRecord> events;
  Status status = ReadAll("7,-73.99,40.75,1600000000,cab\r\n"
                          "\n"
                          "8,-73.95,40.70,1600000100,x\r\n"
                          "\r\n",
                          &events);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 7);
  EXPECT_EQ(events[1].attr, "x");
}

TEST(TextImportTest, MalformedNumberIsCorruption) {
  std::vector<EventRecord> events;
  Status status = ReadAll("id,x,y,time,attr\n"
                          "1,not-a-number,2.0,100,x\n",
                          &events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

Status ParseRow(const std::string& line) {
  return ParseEventCsvRow(SplitCsvLine(line), "test").status();
}

// Fail closed: a NaN or infinite coordinate matches no query box, so such a
// row is Corruption rather than a stored record no Select can return.
TEST(TextImportTest, NonFiniteCoordinatesAreCorruption) {
  ASSERT_TRUE(ParseRow("1,-73.9,40.7,1580000000,x").ok());
  for (const char* row :
       {"1,nan,40.7,1580000000,x", "1,-73.9,nan,1580000000,x",
        "1,inf,40.7,1580000000,x", "1,-73.9,-inf,1580000000,x",
        "1,1e999,40.7,1580000000,x"}) {
    Status status = ParseRow(row);
    EXPECT_EQ(status.code(), Status::Code::kCorruption)
        << row << ": " << status.ToString();
  }
}

// Every numeric field is consumed whole and integers stay in int64 range:
// a trailing suffix is not silently dropped, a huge value not clamped.
TEST(TextImportTest, TrailingJunkOrOutOfRangeIsCorruption) {
  for (const char* row :
       {"1,12abc,40.7,1580000000,x", "2,-73.9,40.7,1580000000x,y",
        "1x,-73.9,40.7,1580000000,y", "1,-73.9,40.7,,y",
        "99999999999999999999,-73.9,40.7,1580000000,y",
        "1,-73.9,40.7,-99999999999999999999,y"}) {
    Status status = ParseRow(row);
    EXPECT_EQ(status.code(), Status::Code::kCorruption)
        << row << ": " << status.ToString();
  }
}

// The reader stops at the first bad row: nothing after it reaches the sink.
TEST(TextImportTest, ReaderStopsAtTheFirstBadRow) {
  std::vector<EventRecord> events;
  Status status = ReadAll("1,-73.9,40.7,1580000000,ok\n"
                          "2,nan,40.7,1580000000,bad\n"
                          "3,-73.9,40.7,1580000000,after\n",
                          &events);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, 1);
}

TEST(TextImportTest, SinkErrorStopsTheRead) {
  std::istringstream in("1,0,0,10\n2,0,0,20\n3,0,0,30\n");
  int calls = 0;
  Status status = ReadEventsCsv(in, "test", [&](EventRecord record) {
    ++calls;
    if (record.id == 2) return Status::IOError("sink full");
    return Status::Ok();
  });
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace st4ml
