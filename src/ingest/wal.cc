#include "ingest/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/fault_injector.h"
#include "storage/atomic_publish.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

// Minimum payload: id + x + y + time + attr_len with an empty attr.
constexpr uint32_t kMinPayloadBytes = 8 + 8 + 8 + 8 + 4;

const uint32_t* Crc32Table() {
  static const auto table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

template <typename T>
void AppendRaw(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

Status WriteAll(int fd, const char* data, size_t len,
                const std::string& path) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("wal write failed for " + path);
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

uint32_t WalCrc32(const void* data, size_t len) {
  const uint32_t* table = Crc32Table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendEventWire(std::string* out, const EventRecord& r) {
  AppendRaw(out, r.id);
  AppendRaw(out, r.x);
  AppendRaw(out, r.y);
  AppendRaw(out, r.time);
  uint32_t len = static_cast<uint32_t>(r.attr.size());
  AppendRaw(out, len);
  out->append(r.attr.data(), r.attr.size());
}

void AppendWalFrame(std::string* out, const EventRecord& r) {
  size_t payload_at = out->size() + kWalFrameOverhead;
  uint32_t payload_len =
      static_cast<uint32_t>(kMinPayloadBytes + r.attr.size());
  AppendRaw(out, payload_len);
  uint32_t crc_placeholder = 0;
  AppendRaw(out, crc_placeholder);
  AppendEventWire(out, r);
  uint32_t crc = WalCrc32(out->data() + payload_at, payload_len);
  std::memcpy(out->data() + payload_at - sizeof(crc), &crc, sizeof(crc));
}

WalWriter::~WalWriter() { Abandon(); }

WalWriter::WalWriter(WalWriter&& other) noexcept {
  *this = std::move(other);
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this == &other) return *this;
  Abandon();
  fd_ = other.fd_;
  sealed_path_ = std::move(other.sealed_path_);
  open_path_ = std::move(other.open_path_);
  record_count_ = other.record_count_;
  byte_count_ = other.byte_count_;
  other.fd_ = -1;
  return *this;
}

void WalWriter::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<WalWriter> WalWriter::Create(const std::string& sealed_path) {
  WalWriter writer;
  writer.sealed_path_ = sealed_path;
  writer.open_path_ = sealed_path + kWalOpenSuffix;
  std::error_code ec;
  fs::path parent = fs::path(sealed_path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  writer.fd_ = ::open(writer.open_path_.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (writer.fd_ < 0) {
    return Status::IOError("cannot create wal segment " + writer.open_path_);
  }
  char header[kWalHeaderBytes];
  std::memcpy(header, kWalMagic, sizeof(kWalMagic));
  header[sizeof(kWalMagic)] = static_cast<char>(kStpqKindEvent);
  Status wrote =
      WriteAll(writer.fd_, header, sizeof(header), writer.open_path_);
  if (!wrote.ok()) return wrote;
  writer.byte_count_ = kWalHeaderBytes;
  return writer;
}

Status WalWriter::Append(const EventRecord& r) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kWalAppend, open_path_));
  if (fd_ < 0) return Status::Internal("wal segment closed: " + open_path_);
  frame_buf_.clear();
  AppendWalFrame(&frame_buf_, r);
  ST4ML_RETURN_IF_ERROR(
      WriteAll(fd_, frame_buf_.data(), frame_buf_.size(), open_path_));
  record_count_ += 1;
  byte_count_ += frame_buf_.size();
  return Status::Ok();
}

Status WalWriter::AppendFrames(const std::string& frames, uint64_t n) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kWalAppend, open_path_));
  if (fd_ < 0) return Status::Internal("wal segment closed: " + open_path_);
  ST4ML_RETURN_IF_ERROR(
      WriteAll(fd_, frames.data(), frames.size(), open_path_));
  record_count_ += n;
  byte_count_ += frames.size();
  return Status::Ok();
}

Status WalWriter::TruncateTo(uint64_t byte_count, uint64_t record_count) {
  if (fd_ < 0) return Status::Internal("wal segment closed: " + open_path_);
  // ftruncate alone is not enough: the fd's offset sits past the staged
  // frames, and a later append there would leave a hole of zeros replay
  // would read as a torn frame mid-segment.
  if (::ftruncate(fd_, static_cast<off_t>(byte_count)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(byte_count), SEEK_SET) < 0) {
    return Status::IOError("cannot roll back wal segment " + open_path_);
  }
  byte_count_ = byte_count;
  record_count_ = record_count;
  return Status::Ok();
}

Status WalWriter::Seal() {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kWalSeal, sealed_path_));
  if (fd_ < 0) return Status::Internal("wal segment closed: " + open_path_);
  if (::fsync(fd_) != 0) {
    return Status::IOError("wal fsync failed for " + open_path_);
  }
  ::close(fd_);
  fd_ = -1;
  if (std::rename(open_path_.c_str(), sealed_path_.c_str()) != 0) {
    return Status::IOError("cannot seal wal segment " + sealed_path_);
  }
  return FsyncParentDir(sealed_path_);
}

StatusOr<WalReadResult> ReadWalSegment(const std::string& path, bool strict) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("no such wal segment: " + path);
  char header[kWalHeaderBytes];
  in.read(header, sizeof(header));
  bool bad_header =
      in.gcount() != static_cast<std::streamsize>(sizeof(header)) ||
      std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0 ||
      header[sizeof(kWalMagic)] != static_cast<char>(kStpqKindEvent);
  if (bad_header) {
    if (strict) return Status::Corruption("bad wal header in " + path);
    // A crash between open(2) and the header hitting disk leaves a 0-byte
    // or short-headered `.open` file in which no append was ever acked:
    // report it as one fully-torn empty segment so recovery can remove it
    // instead of failing the whole directory open.
    WalReadResult torn;
    torn.torn_tail = true;
    torn.good_bytes = 0;
    return torn;
  }

  WalReadResult result;
  result.good_bytes = kWalHeaderBytes;
  std::string payload;
  // Tolerant reads may race a live appender, so the only trustworthy size
  // signal is the framing itself: any short read or CRC mismatch is the
  // (possibly still-growing) tail.
  const uint64_t file_bytes = FileSizeBytes(path);
  while (true) {
    uint32_t frame[2];  // payload_len, crc
    in.read(reinterpret_cast<char*>(frame), sizeof(frame));
    if (in.gcount() == 0) break;  // clean end
    bool torn = in.gcount() != static_cast<std::streamsize>(sizeof(frame));
    uint32_t payload_len = torn ? 0 : frame[0];
    if (!torn &&
        (payload_len < kMinPayloadBytes || payload_len > file_bytes)) {
      torn = true;  // implausible length: garbage or a torn length word
    }
    if (!torn) {
      payload.resize(payload_len);
      in.read(payload.data(), payload_len);
      torn = in.gcount() != static_cast<std::streamsize>(payload_len) ||
             WalCrc32(payload.data(), payload_len) != frame[1];
    }
    if (torn) {
      if (strict) {
        return Status::Corruption("torn or corrupt wal frame in " + path);
      }
      result.torn_tail = true;
      break;
    }
    // Decode the STPQ event wire payload; the length must agree exactly.
    EventRecord r;
    const char* p = payload.data();
    std::memcpy(&r.id, p, 8);
    std::memcpy(&r.x, p + 8, 8);
    std::memcpy(&r.y, p + 16, 8);
    std::memcpy(&r.time, p + 24, 8);
    uint32_t attr_len = 0;
    std::memcpy(&attr_len, p + 32, 4);
    if (attr_len != payload_len - kMinPayloadBytes) {
      return Status::Corruption("wal frame length disagrees in " + path);
    }
    r.attr.assign(p + kMinPayloadBytes, attr_len);
    result.records.push_back(std::move(r));
    result.good_bytes += kWalFrameOverhead + payload_len;
  }
  return result;
}

StatusOr<WalReadResult> ReadListedWalSegment(const std::string& path) {
  auto result = ReadWalSegment(path, /*strict=*/false);
  const size_t suffix = std::strlen(kWalOpenSuffix);
  if (result.ok() || result.status().code() != Status::Code::kNotFound ||
      path.size() <= suffix ||
      path.compare(path.size() - suffix, suffix, kWalOpenSuffix) != 0) {
    return result;
  }
  return ReadWalSegment(path.substr(0, path.size() - suffix),
                        /*strict=*/false);
}

std::vector<std::string> ListWalSegments(const std::string& wal_dir) {
  std::vector<std::string> sealed;
  std::vector<std::string> active;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(wal_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    auto ends_with = [&](const std::string& suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (ends_with(".stwal")) {
      sealed.push_back(entry.path().string());
    } else if (ends_with(std::string(".stwal") + kWalOpenSuffix)) {
      active.push_back(entry.path().string());
    }
  }
  std::sort(sealed.begin(), sealed.end());
  std::sort(active.begin(), active.end());
  sealed.insert(sealed.end(), active.begin(), active.end());
  return sealed;
}

}  // namespace st4ml
