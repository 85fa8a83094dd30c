#ifndef ST4ML_COMMON_STATUS_H_
#define ST4ML_COMMON_STATUS_H_

#include <exception>
#include <string>
#include <utility>

namespace st4ml {

/// Error handling across every public API boundary (RocksDB idiom, DESIGN.md
/// §5): fallible functions return `Status` or `StatusOr<T>`; exceptions never
/// cross module boundaries.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kIOError = 3,
    kInvalidArgument = 4,
    kInternal = 5,
    kResourceExhausted = 6,
  };

  Status() : code_(Code::kOk) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "Unknown";
    switch (code_) {
      case Code::kOk: name = "OK"; break;
      case Code::kNotFound: name = "NotFound"; break;
      case Code::kCorruption: name = "Corruption"; break;
      case Code::kIOError: name = "IOError"; break;
      case Code::kInvalidArgument: name = "InvalidArgument"; break;
      case Code::kInternal: name = "Internal"; break;
      case Code::kResourceExhausted: name = "ResourceExhausted"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// The exception form of a Status, for the value-returning Dataset
/// transforms (Map, Filter, Aggregate, Repartition, ...) whose signatures
/// cannot carry a Status. The executor turns every task failure, a throw
/// included, into the job's Status; such a transform then throws exactly
/// one StatusError on the DRIVER thread. Exceptions never unwind a worker,
/// and the Status-returning Try* paths never throw at all.
class StatusError : public std::exception {
 public:
  explicit StatusError(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}

  const Status& status() const { return status_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Status status_;
  std::string what_;
};

/// Either a value or the error that prevented producing one.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit from error Status
      : status_(std::move(status)) {}
  StatusOr(T value)  // NOLINT: implicit from value
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

  const T& operator*() const& { return value_; }
  T& operator*() & { return value_; }
  T&& operator*() && { return std::move(value_); }
  const T* operator->() const { return &value_; }
  T* operator->() { return &value_; }

 private:
  Status status_;
  T value_{};
};

/// Propagates a non-OK status to the caller.
#define ST4ML_RETURN_IF_ERROR(expr)                \
  do {                                             \
    ::st4ml::Status st4ml_status_ = (expr);        \
    if (!st4ml_status_.ok()) return st4ml_status_; \
  } while (0)

}  // namespace st4ml

#endif  // ST4ML_COMMON_STATUS_H_
