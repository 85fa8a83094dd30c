#ifndef ST4ML_STORAGE_INLINE_STRING_H_
#define ST4ML_STORAGE_INLINE_STRING_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace st4ml {

/// A byte string in 32 bytes: a value of up to kInlineCapacity bytes lives
/// inside the object, a longer one in a heap block whose pointer overlays
/// the first bytes of the inline buffer (the short-string layout of Umbra,
/// Neumann & Freitag, CIDR 2020). Event attributes are short, so decoding,
/// copying and freeing one allocates nothing: a short copy is a 32-byte
/// copy, and a move of a long value steals its block. Binary-safe (embedded
/// NULs are kept); c_str() is always NUL-terminated.
class InlineString {
 public:
  /// Bytes kept inline; the buffer holds them plus the terminating NUL.
  static constexpr size_t kInlineCapacity = 27;

  InlineString() noexcept = default;
  InlineString(std::string_view s) { assign(s.data(), s.size()); }
  InlineString(const char* s) : InlineString(std::string_view(s)) {}
  InlineString(const std::string& s) : InlineString(std::string_view(s)) {}
  InlineString(const InlineString& other) {
    if (other.is_heap()) {
      assign(other.data(), other.size());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      size_ = other.size_;
    }
  }
  InlineString(InlineString&& other) noexcept { Steal(&other); }
  ~InlineString() { Release(); }

  InlineString& operator=(const InlineString& other) {
    if (this == &other) return *this;
    if (!is_heap() && !other.is_heap()) {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      size_ = other.size_;
      return *this;
    }
    return assign(other.data(), other.size());
  }
  InlineString& operator=(InlineString&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(&other);
    }
    return *this;
  }

  /// Replaces the value with the `n` bytes at `s`, which may lie inside
  /// this string's own bytes.
  InlineString& assign(const char* s, size_t n) {
    ST4ML_CHECK(n <= UINT32_MAX) << "InlineString of " << n << " bytes";
    if (n <= kInlineCapacity) {
      char* old = is_heap() ? heap() : nullptr;
      std::memmove(bytes_, s, n);
      bytes_[n] = '\0';
      size_ = static_cast<uint32_t>(n);
      delete[] old;
    } else {
      char* block = new char[n + 1];
      std::memcpy(block, s, n);
      block[n] = '\0';
      Release();
      std::memcpy(bytes_, &block, sizeof(block));
      size_ = static_cast<uint32_t>(n);
    }
    return *this;
  }
  void clear() {
    Release();
    bytes_[0] = '\0';
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const char* data() const { return is_heap() ? heap() : bytes_; }
  const char* c_str() const { return data(); }
  /// Whether the value lives in a heap block (longer than kInlineCapacity).
  bool is_heap() const { return size_ > kInlineCapacity; }
  std::string_view view() const { return std::string_view(data(), size_); }
  operator std::string_view() const { return view(); }

  friend bool operator==(const InlineString& a, const InlineString& b) {
    return a.view() == b.view();
  }
  friend std::strong_ordering operator<=>(const InlineString& a,
                                          const InlineString& b) {
    return a.view() <=> b.view();
  }
  friend std::ostream& operator<<(std::ostream& os, const InlineString& s) {
    return os << s.view();
  }

 private:
  char* heap() const {
    char* block = nullptr;
    std::memcpy(&block, bytes_, sizeof(block));
    return block;
  }
  void Release() {
    if (is_heap()) delete[] heap();
  }
  /// Takes `other`'s bytes (or heap block) and leaves it empty.
  void Steal(InlineString* other) {
    std::memcpy(bytes_, other->bytes_, sizeof(bytes_));
    size_ = other->size_;
    other->bytes_[0] = '\0';
    other->size_ = 0;
  }

  char bytes_[kInlineCapacity + 1] = {};
  uint32_t size_ = 0;
};

static_assert(sizeof(InlineString) == 32);
static_assert(sizeof(char*) <= InlineString::kInlineCapacity + 1);

}  // namespace st4ml

#endif  // ST4ML_STORAGE_INLINE_STRING_H_
