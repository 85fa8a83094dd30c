#ifndef ST4ML_TOOLS_TOOL_FLAGS_H_
#define ST4ML_TOOLS_TOOL_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/session.h"
#include "selection/select_query.h"

namespace st4ml {
namespace tools {

/// Minimal `--name=value` flag access over argv, shared by the CLI tools.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::string GetString(const std::string& name,
                        const std::string& default_value) const {
    std::string prefix = "--" + name + "=";
    for (const std::string& arg : args_) {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    }
    return default_value;
  }

  /// Strict integer flag: the whole value must parse (same rule as
  /// GetIntList), so `--limit=10x` or `--cache-budget=abc` is a usage
  /// error, never a silent 10 or 0. A malformed value is recorded against
  /// the flag name; tools surface it through CheckIntFlags before acting.
  int64_t GetInt(const std::string& name, int64_t default_value) const {
    std::string value = GetString(name, "");
    if (value.empty()) return default_value;
    char* end = nullptr;
    errno = 0;
    long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
      errors_.push_back("--" + name + "=" + value +
                        " is not a valid integer");
      return default_value;
    }
    return static_cast<int64_t>(parsed);
  }

  /// True when every integer flag read so far parsed cleanly.
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  bool Has(const std::string& name) const {
    return !GetString(name, "").empty() ||
           std::find(args_.begin(), args_.end(), "--" + name) != args_.end();
  }

  /// Splits a `a,b,c,...` flag value into doubles; returns false on a count
  /// mismatch or when any piece fails to parse completely or is not finite
  /// (the server's JSON number rule), so `10x` or `nan` is never a value.
  bool GetDoubleList(const std::string& name, size_t expected,
                     std::vector<double>* out) const {
    std::string value = GetString(name, "");
    if (value.empty()) return false;
    out->clear();
    std::stringstream stream(value);
    std::string piece;
    while (std::getline(stream, piece, ',')) {
      char* end = nullptr;
      double parsed = std::strtod(piece.c_str(), &end);
      if (end == piece.c_str() || *end != '\0' || !std::isfinite(parsed)) {
        return false;
      }
      out->push_back(parsed);
    }
    return out->size() == expected;
  }

  /// Splits a `1,2,3,...` flag value into int64s (any count >= 1); returns
  /// false when the flag is absent or any piece fails to parse completely.
  bool GetIntList(const std::string& name, std::vector<int64_t>* out) const {
    std::string value = GetString(name, "");
    if (value.empty()) return false;
    out->clear();
    std::stringstream stream(value);
    std::string piece;
    while (std::getline(stream, piece, ',')) {
      char* end = nullptr;
      long long parsed = std::strtoll(piece.c_str(), &end, 10);
      if (end == piece.c_str() || *end != '\0') return false;
      out->push_back(static_cast<int64_t>(parsed));
    }
    return !out->empty();
  }

 private:
  std::vector<std::string> args_;
  // GetInt is a const accessor on a parse-once view, so the malformed-flag
  // record is the one mutable bit of state.
  mutable std::vector<std::string> errors_;
};

/// The usage-error gate every tool runs after its last integer flag read:
/// prints each malformed flag by name and returns false so the tool exits
/// with a usage error instead of acting on a half-parsed number.
inline bool CheckIntFlags(const Flags& flags, const char* tool) {
  if (flags.ok()) return true;
  for (const std::string& error : flags.errors()) {
    std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
  }
  return false;
}

/// The engine flag set every Session-backed entry point shares, parsed ONCE:
///   --cache-budget=BYTES   explicit dataset-cache budget (negative means
///                          unbounded, 0 disables; absent keeps the
///                          ST4ML_CACHE_BUDGET_BYTES env default)
///   --trace=FILE           attach a Tracer; Chrome trace written on export
///   --metrics-json=FILE    flat metrics JSON written on export
///   --workers=N            worker pool size (0 sizes to the hardware)
///   --backend=NAME         force the accel kernel backend
///                          (scalar|sse2|avx2; absent keeps the automatic
///                          choice: ST4ML_BACKEND env, else widest ISA the
///                          CPU supports) — an invalid name surfaces on
///                          Session::configure_status()
/// The batch CLIs and st4mld all feed the result to Session::Configure —
/// one spelling of the plumbing instead of five.
inline ToolOptions ToolOptionsFromFlags(const Flags& flags) {
  ToolOptions options;
  if (flags.Has("cache-budget")) {
    options.has_cache_budget = true;
    options.cache_budget_bytes = flags.GetInt("cache-budget", 0);
  }
  options.trace_path = flags.GetString("trace", "");
  options.metrics_json_path = flags.GetString("metrics-json", "");
  options.num_workers = static_cast<int>(flags.GetInt("workers", 0));
  options.backend = flags.GetString("backend", "");
  return options;
}

/// The CLI spelling of the unified SelectQuery (the same predicate the
/// server's select/lookup_id verbs parse from JSON):
///   --mbr=x1,y1,x2,y2 --time=start,end   the ST box (both or neither;
///                                        omitted means span-everything)
///   --ids=1,2,3                          restrict to these record ids
///   --limit=N                            cap PRINTED rows (count is exact)
///   --count-only                         print only the match count
/// At least one predicate (a box or an id list) is required — an
/// unconstrained full dump stays an explicit choice, not a typo. Returns
/// false on a usage error, with the malformed flag named on stderr.
inline bool SelectQueryFromFlags(const Flags& flags, const char* tool,
                                 SelectQuery* query) {
  *query = SelectQuery();
  bool has_mbr = flags.Has("mbr");
  bool has_time = flags.Has("time");
  if (has_mbr || has_time) {
    std::vector<double> mbr;
    std::vector<double> time;
    if (!flags.GetDoubleList("mbr", 4, &mbr) ||
        !flags.GetDoubleList("time", 2, &time)) {
      std::fprintf(stderr,
                   "%s: --mbr=x1,y1,x2,y2 and --time=start,end must be "
                   "given together, as finite numbers\n",
                   tool);
      return false;
    }
    // The same integral-int64 rule the server's select verb applies
    // (ParseQuery): casting an out-of-range double to int64_t is UB, so
    // `--time=0,1e300` must die as a usage error, not as whatever the
    // hardware truncates it to.
    for (double t : time) {
      if (t < -9223372036854775808.0 || t >= 9223372036854775808.0 ||
          t != std::floor(t)) {
        std::fprintf(stderr,
                     "%s: --time endpoints must be integral int64 seconds\n",
                     tool);
        return false;
      }
    }
    query->box = STBox(Mbr(mbr[0], mbr[1], mbr[2], mbr[3]),
                       Duration(static_cast<int64_t>(time[0]),
                                static_cast<int64_t>(time[1])));
  } else {
    query->box = SelectQuery::EverythingBox();
  }
  if (flags.Has("ids")) {
    std::vector<int64_t> ids;
    if (!flags.GetIntList("ids", &ids)) {
      std::fprintf(stderr, "%s: --ids must be a comma-separated id list\n",
                   tool);
      return false;
    }
    query->SetIds(std::move(ids));
  }
  if (!has_mbr && !has_time && !query->has_ids) {
    std::fprintf(stderr, "%s: give --mbr/--time and/or --ids\n", tool);
    return false;
  }
  query->limit = flags.GetInt("limit", -1);
  query->count_only = flags.Has("count-only");
  return true;
}

/// Post-construction check the Session-backed tools share: a bad engine
/// option (an unknown --backend) reports on stderr and exits non-zero
/// instead of silently running misconfigured.
inline bool CheckSessionConfig(const Session& session, const char* tool) {
  if (session.configure_status().ok()) return true;
  std::fprintf(stderr, "%s: %s\n", tool,
               session.configure_status().ToString().c_str());
  return false;
}

}  // namespace tools
}  // namespace st4ml

#endif  // ST4ML_TOOLS_TOOL_FLAGS_H_
