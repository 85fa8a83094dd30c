#include "storage/json.h"

#include <cinttypes>
#include <cstdio>

namespace st4ml {

std::string JsonQuote(std::string_view value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

JsonObject& JsonObject::AddField(const std::string& key,
                                 const std::string& rendered) {
  if (!body_.empty()) body_ += ',';
  body_ += JsonQuote(key);
  body_ += ':';
  body_ += rendered;
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, std::string_view value) {
  return AddField(key, JsonQuote(value));
}

JsonObject& JsonObject::Add(const std::string& key, const char* value) {
  return AddField(key, JsonQuote(value));
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  return AddField(key, buf);
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return AddField(key, buf);
}

JsonObject& JsonObject::Add(const std::string& key, int value) {
  return Add(key, static_cast<int64_t>(value));
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return AddField(key, buf);
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddField(key, value ? "true" : "false");
}

JsonObject& JsonObject::AddRaw(const std::string& key,
                               const std::string& json) {
  return AddField(key, json);
}

std::string JsonObject::Str() const { return "{" + body_ + "}"; }

}  // namespace st4ml
