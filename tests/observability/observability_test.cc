// Pins the observability subsystem's contracts: the Chrome trace export is
// valid JSON whose spans nest pipeline → stage → operation → task in stage
// order, the typed counters reproduce the legacy EngineMetrics shuffle
// accounting (totals == per-operator sums) on the shuffle-invariance
// scenarios, tracing changes NO counter (traced and untraced runs snapshot
// identically), and the metrics JSON matches MetricsSnapshot() exactly.

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/dataset.h"
#include "engine/execution_context.h"
#include "engine/pair_ops.h"
#include "observability/counters.h"
#include "observability/trace_export.h"
#include "observability/tracer.h"
#include "pipeline/pipeline.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// A minimal JSON reader (objects, arrays, strings, numbers, bools, null) —
// just enough to validate the exporters without an external dependency.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u':
            // Good enough for these tests: skip the four hex digits.
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;
            out->push_back('?');
            break;
          default: out->push_back(esc); break;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      for (;;) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      for (;;) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::kNull;
      pos_ += 4;
      return true;
    }
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return false;
    out->kind = JsonValue::kNumber;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::vector<std::pair<int64_t, int64_t>> RandomPairs(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(n);
  for (int i = 0; i < n; ++i) {
    pairs.emplace_back(rng.UniformInt(0, 200), rng.UniformInt(-50, 50));
  }
  return pairs;
}

/// The reference workload: one traced "pipeline" with a shuffle per stage.
void RunStagedWorkload(const std::shared_ptr<ExecutionContext>& ctx) {
  auto pairs = RandomPairs(5000, 17);
  Pipeline pipeline(ctx, "test_pipeline");
  auto data = pipeline.Run("selection", [&] {
    return Dataset<std::pair<int64_t, int64_t>>::Parallelize(ctx, pairs, 6);
  });
  auto reduced = pipeline.Run(
      "conversion",
      [](const Dataset<std::pair<int64_t, int64_t>>& in) {
        return TryReduceByKey<int64_t, int64_t>(in, std::plus<int64_t>());
      },
      data);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  pipeline.Run(
      "extraction",
      [](const Dataset<std::pair<int64_t, int64_t>>& in) {
        return in.Collect().size();
      },
      *reduced);
}

TEST(TraceExportTest, ChromeTraceIsValidJsonWithNestedSpans) {
  auto ctx = ExecutionContext::Create(4);
  auto tracer = std::make_shared<Tracer>();
  ctx->set_tracer(tracer);
  RunStagedWorkload(ctx);

  std::string path = TempPath("st4ml_observability_trace.json");
  ASSERT_TRUE(WriteChromeTrace(*tracer, path).ok());
  JsonValue root;
  ASSERT_TRUE(JsonReader(ReadFile(path)).Parse(&root)) << "invalid JSON";
  fs::remove(path);

  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_FALSE(events->array.empty());

  // Index span_id -> (category, parent_id, name); verify event shape.
  struct Node {
    std::string cat;
    std::string name;
    uint64_t parent = 0;
  };
  std::map<uint64_t, Node> nodes;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::kObject);
    for (const char* field : {"name", "cat", "ph"}) {
      const JsonValue* v = event.Find(field);
      ASSERT_NE(v, nullptr) << field;
      EXPECT_EQ(v->kind, JsonValue::kString) << field;
    }
    EXPECT_EQ(event.Find("ph")->str, "X");
    for (const char* field : {"pid", "tid", "ts", "dur"}) {
      const JsonValue* v = event.Find(field);
      ASSERT_NE(v, nullptr) << field;
      EXPECT_EQ(v->kind, JsonValue::kNumber) << field;
      EXPECT_GE(v->number, 0) << field;
    }
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_EQ(args->kind, JsonValue::kObject);
    const JsonValue* id = args->Find("span_id");
    const JsonValue* parent = args->Find("parent_id");
    ASSERT_NE(id, nullptr);
    ASSERT_NE(parent, nullptr);
    Node node;
    node.cat = event.Find("cat")->str;
    node.name = event.Find("name")->str;
    node.parent = static_cast<uint64_t>(parent->number);
    nodes[static_cast<uint64_t>(id->number)] = node;
  }

  // Depth of each span via parent links; categories must layer
  // pipeline(0) → stage(1) → operation(2) → task(3).
  std::function<int(uint64_t)> depth_of = [&](uint64_t id) -> int {
    const Node& node = nodes.at(id);
    return node.parent == 0 ? 0 : depth_of(node.parent) + 1;
  };
  std::map<std::string, int> max_depth_by_cat;
  int pipelines = 0;
  std::vector<std::string> stage_names;  // in span-id (creation) order
  for (const auto& [id, node] : nodes) {
    int depth = depth_of(id);
    max_depth_by_cat[node.cat] = std::max(max_depth_by_cat[node.cat], depth);
    if (node.cat == "pipeline") {
      ++pipelines;
      EXPECT_EQ(depth, 0);
    }
    if (node.cat == "stage") {
      EXPECT_EQ(depth, 1);
      EXPECT_EQ(nodes.at(node.parent).cat, "pipeline");
      stage_names.push_back(node.name);
    }
    if (node.cat == "operation" && nodes.at(node.parent).cat == "stage") {
      EXPECT_EQ(depth, 2);
    }
    if (node.cat == "task") {
      EXPECT_EQ(nodes.at(node.parent).cat, "operation");
    }
  }
  EXPECT_EQ(pipelines, 1);
  // Stage spans appear in pipeline order.
  ASSERT_EQ(stage_names.size(), 3u);
  EXPECT_EQ(stage_names[0], "selection");
  EXPECT_EQ(stage_names[1], "conversion");
  EXPECT_EQ(stage_names[2], "extraction");
  // >= 3 nested levels: a task under an operation under a stage.
  EXPECT_GE(max_depth_by_cat["task"], 3);
}

TEST(CounterRegistryTest, PerOperatorShuffleSlotsPartitionTheTotals) {
  auto pairs = RandomPairs(20000, 41);
  for (size_t parts : {size_t{1}, size_t{3}, size_t{8}, size_t{64}}) {
    for (int workers : {1, 2, 8}) {
      auto ctx = ExecutionContext::Create(workers);
      auto data = Dataset<std::pair<int64_t, int64_t>>::Parallelize(
          ctx, pairs, parts);
      auto reduced =
          TryReduceByKey<int64_t, int64_t>(data, std::plus<int64_t>());
      ASSERT_TRUE(reduced.ok());
      auto grouped = TryGroupByKey<int64_t, int64_t>(data);
      ASSERT_TRUE(grouped.ok());
      data.Repartition(parts * 2);
      MetricsSnapshot snap = ctx->MetricsSnapshot();

      uint64_t per_op_records = snap[Counter::kShuffleRecordsReduceByKey] +
                                snap[Counter::kShuffleRecordsGroupByKey] +
                                snap[Counter::kShuffleRecordsRepartition] +
                                snap[Counter::kShuffleRecordsStPartition];
      uint64_t per_op_bytes = snap[Counter::kShuffleBytesReduceByKey] +
                              snap[Counter::kShuffleBytesGroupByKey] +
                              snap[Counter::kShuffleBytesRepartition] +
                              snap[Counter::kShuffleBytesStPartition];
      EXPECT_EQ(snap[Counter::kShuffleRecords], per_op_records)
          << "workers=" << workers << " parts=" << parts;
      EXPECT_EQ(snap[Counter::kShuffleBytes], per_op_bytes);
      // GroupByKey and Repartition each move every record.
      EXPECT_EQ(snap[Counter::kShuffleRecordsGroupByKey], pairs.size());
      EXPECT_EQ(snap[Counter::kShuffleRecordsRepartition], pairs.size());
      EXPECT_GT(snap[Counter::kShuffleRecordsReduceByKey], 0u);
      EXPECT_GT(snap[Counter::kParallelJobs], 0u);
      EXPECT_GT(snap[Counter::kChunkClaims], 0u);
    }
  }
}

TEST(CounterRegistryTest, TracingChangesNoCounter) {
  // The zero-cost-when-off contract's observable half: a traced run and an
  // untraced run of the same workload produce IDENTICAL snapshots.
  auto untraced = ExecutionContext::Create(4);
  RunStagedWorkload(untraced);

  auto traced = ExecutionContext::Create(4);
  traced->set_tracer(std::make_shared<Tracer>());
  RunStagedWorkload(traced);

  EXPECT_TRUE(untraced->MetricsSnapshot() == traced->MetricsSnapshot());
  // And the no-op side recorded no spans anywhere (nullptr tracer).
  EXPECT_EQ(untraced->tracer(), nullptr);
}

TEST(TraceExportTest, MetricsJsonMatchesSnapshotExactly) {
  auto ctx = ExecutionContext::Create(4);
  RunStagedWorkload(ctx);
  MetricsSnapshot snap = ctx->MetricsSnapshot();

  std::string path = TempPath("st4ml_observability_metrics.json");
  ASSERT_TRUE(WriteMetricsJson(snap, path).ok());
  JsonValue root;
  ASSERT_TRUE(JsonReader(ReadFile(path)).Parse(&root)) << "invalid JSON";
  fs::remove(path);

  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_EQ(root.object.size(), kNumCounters);
  for (size_t i = 0; i < kNumCounters; ++i) {
    Counter c = static_cast<Counter>(i);
    const JsonValue* value = root.Find(CounterName(c));
    ASSERT_NE(value, nullptr) << CounterName(c);
    ASSERT_EQ(value->kind, JsonValue::kNumber);
    EXPECT_EQ(static_cast<uint64_t>(value->number), snap[c])
        << CounterName(c);
  }
}

TEST(TracerTest, ResetMetricsZeroesEverySlot) {
  auto ctx = ExecutionContext::Create(2);
  RunStagedWorkload(ctx);
  ASSERT_GT(ctx->MetricsSnapshot()[Counter::kShuffleRecords], 0u);
  ctx->ResetMetrics();
  MetricsSnapshot zero;
  EXPECT_TRUE(ctx->MetricsSnapshot() == zero);
}

TEST(TracerTest, ScopedSpanIsInertOnNullTracer) {
  ScopedSpan span(nullptr, span_category::kOperation, "noop");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.AddArg("ignored", 1);  // must not crash
}

}  // namespace
}  // namespace st4ml
