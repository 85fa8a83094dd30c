#ifndef ST4ML_STORAGE_JSON_H_
#define ST4ML_STORAGE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace st4ml {

/// Minimal JSON object writer for the CLI tools' JSONL output. Fields keep
/// insertion order; nesting happens by adding a built object as raw JSON.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, std::string_view value);
  JsonObject& Add(const std::string& key, const char* value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, int value);
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, bool value);
  /// Adds pre-serialized JSON (an array or nested object) verbatim.
  JsonObject& AddRaw(const std::string& key, const std::string& json);

  /// The complete object, e.g. {"a":1,"b":"x"}.
  std::string Str() const;

 private:
  JsonObject& AddField(const std::string& key, const std::string& rendered);

  std::string body_;
};

/// Escapes and double-quotes a string for JSON.
std::string JsonQuote(std::string_view value);

}  // namespace st4ml

#endif  // ST4ML_STORAGE_JSON_H_
