#include "storage/stpq.h"

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <type_traits>

#include "common/fault_injector.h"
#include "storage/atomic_publish.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

// Minimum wire size of one record, for clamping an untrusted header count
// before reserve(): an event is at least id+x+y+time+attr_len bytes, a
// trajectory at least id+npoints.
constexpr uint64_t kMinEventRecordBytes = 8 + 8 + 8 + 8 + 4;
constexpr uint64_t kMinTrajRecordBytes = 8 + 8;
constexpr uint64_t kTrajPointBytes = 8 + 8 + 8;

template <typename T>
void WriteRaw(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Bounds-checked decoding over bytes already in memory: every read checks
// the bytes left first, so a short buffer fails a record and never reads
// past its end.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : pos_(data), end_(data + size) {}

  template <typename T>
  bool Read(T* value) {
    return Take(sizeof(*value), value);
  }
  bool Take(size_t n, void* out) {
    const char* bytes = nullptr;
    if (!Skip(n, &bytes)) return false;
    std::memcpy(out, bytes, n);
    return true;
  }
  /// Points *bytes at the next `n` bytes and steps past them.
  bool Skip(size_t n, const char** bytes) {
    if (remaining() < n) return false;
    *bytes = pos_;
    pos_ += n;
    return true;
  }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

 private:
  const char* pos_;
  const char* end_;
};

// Reads up to `len` bytes from `in`'s position into `buf` with one read
// call; returns the bytes read, short only at end of file.
size_t ReadBlock(std::ifstream& in, char* buf, uint64_t len) {
  in.read(buf, static_cast<std::streamsize>(len));
  return static_cast<size_t>(in.gcount());
}

// Writers stage under `<path>.tmp` and only FinishWrite publishes the
// final name (atomic_publish.h), so a crash mid-write can never leave a
// truncated file where a reader expects a complete one.
Status OpenForWrite(const std::string& path, uint8_t kind, uint64_t count,
                    std::ofstream* out) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kStpqWrite, path));
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  out->open(TmpPathFor(path), std::ios::binary | std::ios::trunc);
  if (!out->is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out->write(kStpqMagic, sizeof(kStpqMagic));
  WriteRaw(*out, kind);
  WriteRaw(*out, count);
  return Status::Ok();
}

/// The write-side epilogue every STPQ writer shares. An ofstream's final
/// flush happens in its DESTRUCTOR, after any good() check a function-body
/// return could make — so a disk-full error on the last buffer used to be
/// reported as Ok. Flush and close explicitly, re-checking after each, and
/// only trust tellp() when it is non-negative (it returns -1 on a failed
/// stream, which would wrap an unsigned io_bytes accumulator). Then fsync
/// the staged bytes and rename them onto `path`.
Status FinishWrite(std::ofstream& out, const std::string& path,
                   uint64_t* io_bytes) {
  std::string tmp = TmpPathFor(path);
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + path);
  }
  std::streamoff pos = static_cast<std::streamoff>(out.tellp());
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to close " + path);
  }
  ST4ML_RETURN_IF_ERROR(PublishFileAtomic(tmp, path));
  if (io_bytes != nullptr && pos >= 0) {
    *io_bytes += static_cast<uint64_t>(pos);
  }
  return Status::Ok();
}

Status CheckHeader(Cursor& in, const std::string& path,
                   uint8_t expected_kind, uint64_t* count) {
  char magic[sizeof(kStpqMagic)];
  if (!in.Take(sizeof(magic), magic) ||
      std::memcmp(magic, kStpqMagic, sizeof(magic)) != 0) {
    return Status::Corruption("bad STPQ magic in " + path);
  }
  uint8_t kind = 0;
  if (!in.Read(&kind)) {
    return Status::Corruption("truncated STPQ header in " + path);
  }
  if (kind != expected_kind) {
    return Status::Corruption("STPQ record kind mismatch in " + path);
  }
  if (!in.Read(count)) {
    return Status::Corruption("truncated STPQ header in " + path);
  }
  return Status::Ok();
}

// Per-record parsers shared by the full readers and StpqReader's ranged
// reads, so both paths apply identical bounds checks. `file_bytes` caps the
// untrusted length fields (overflow-safe: compared, never multiplied).
Status ReadOneRecord(Cursor& in, uint64_t file_bytes, const std::string& path,
                     EventRecord* r) {
  uint32_t len = 0;
  if (!in.Read(&r->id) || !in.Read(&r->x) || !in.Read(&r->y) ||
      !in.Read(&r->time) || !in.Read(&len)) {
    return Status::Corruption("truncated STPQ record in " + path);
  }
  if (static_cast<uint64_t>(len) > file_bytes) {
    return Status::Corruption("implausible attr length in " + path);
  }
  const char* attr = nullptr;
  if (!in.Skip(len, &attr)) {
    return Status::Corruption("truncated STPQ record in " + path);
  }
  r->attr.assign(attr, len);
  return Status::Ok();
}

// A trajectory's points are decoded with one copy: the in-memory point is
// exactly the on-disk x, y, time triple.
static_assert(sizeof(TrajPointRecord) == kTrajPointBytes &&
              offsetof(TrajPointRecord, x) == 0 &&
              offsetof(TrajPointRecord, y) == 8 &&
              offsetof(TrajPointRecord, time) == 16 &&
              std::is_trivially_copyable_v<TrajPointRecord>);

Status ReadOneRecord(Cursor& in, uint64_t file_bytes, const std::string& path,
                     TrajRecord* r) {
  uint64_t n = 0;
  if (!in.Read(&r->id) || !in.Read(&n)) {
    return Status::Corruption("truncated STPQ record in " + path);
  }
  // `n * 24 > file_bytes` wraps for n near 2^64 and the following
  // resize(n) would throw; divide instead of multiply.
  if (n > file_bytes / kTrajPointBytes) {
    return Status::Corruption("implausible point count in " + path);
  }
  const size_t point_bytes = static_cast<size_t>(n) * kTrajPointBytes;
  const char* points = nullptr;
  if (!in.Skip(point_bytes, &points)) {
    return Status::Corruption("truncated STPQ record in " + path);
  }
  r->points.resize(static_cast<size_t>(n));
  if (n > 0) std::memcpy(r->points.data(), points, point_bytes);
  return Status::Ok();
}

// The whole-file reader behind ReadStpqEvents / ReadStpqTrajs: one read of
// the file into memory, then header and records decode from the buffer.
template <typename RecordT>
StatusOr<std::vector<RecordT>> ReadWholeFile(const std::string& path,
                                             uint8_t kind,
                                             uint64_t min_record_bytes,
                                             uint64_t* io_bytes) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kStpqRead, path));
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::NotFound("no such STPQ file: " + path);
  const uint64_t file_bytes = FileSizeBytes(path);
  std::unique_ptr<char[]> buf(new char[file_bytes]);
  Cursor in(buf.get(), ReadBlock(file, buf.get(), file_bytes));
  uint64_t count = 0;
  ST4ML_RETURN_IF_ERROR(CheckHeader(in, path, kind, &count));
  if (io_bytes != nullptr) *io_bytes += file_bytes;
  std::vector<RecordT> records;
  // The header count is untrusted until every record deserializes; clamp
  // the reserve to what the file could possibly hold so a corrupt count
  // cannot trigger a giant allocation. The record loop still walks the full
  // claimed count and reports the truncation.
  records.reserve(
      static_cast<size_t>(std::min(count, file_bytes / min_record_bytes)));
  for (uint64_t i = 0; i < count; ++i) {
    ST4ML_RETURN_IF_ERROR(
        ReadOneRecord(in, file_bytes, path, &records.emplace_back()));
  }
  return records;
}

}  // namespace

Status WriteStpqFile(const std::string& path,
                     const std::vector<EventRecord>& records,
                     uint64_t* io_bytes) {
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(
      OpenForWrite(path, kStpqKindEvent, records.size(), &out));
  for (const EventRecord& r : records) {
    WriteRaw(out, r.id);
    WriteRaw(out, r.x);
    WriteRaw(out, r.y);
    WriteRaw(out, r.time);
    uint32_t len = static_cast<uint32_t>(r.attr.size());
    WriteRaw(out, len);
    out.write(r.attr.data(), len);
  }
  return FinishWrite(out, path, io_bytes);
}

Status WriteStpqFile(const std::string& path,
                     const std::vector<TrajRecord>& records,
                     uint64_t* io_bytes) {
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(OpenForWrite(path, kStpqKindTraj, records.size(), &out));
  for (const TrajRecord& r : records) {
    WriteRaw(out, r.id);
    uint64_t n = r.points.size();
    WriteRaw(out, n);
    for (const TrajPointRecord& p : r.points) {
      WriteRaw(out, p.x);
      WriteRaw(out, p.y);
      WriteRaw(out, p.time);
    }
  }
  return FinishWrite(out, path, io_bytes);
}

StatusOr<std::vector<EventRecord>> ReadStpqEvents(const std::string& path,
                                                  uint64_t* io_bytes) {
  return ReadWholeFile<EventRecord>(path, kStpqKindEvent, kMinEventRecordBytes,
                                    io_bytes);
}

StatusOr<std::vector<TrajRecord>> ReadStpqTrajs(const std::string& path,
                                                uint64_t* io_bytes) {
  return ReadWholeFile<TrajRecord>(path, kStpqKindTraj, kMinTrajRecordBytes,
                                   io_bytes);
}

StatusOr<uint8_t> ReadStpqKind(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::NotFound("no such STPQ file: " + path);
  char header[sizeof(kStpqMagic) + 1];
  Cursor in(header, ReadBlock(file, header, sizeof(header)));
  char magic[sizeof(kStpqMagic)];
  if (!in.Take(sizeof(magic), magic) ||
      std::memcmp(magic, kStpqMagic, sizeof(magic)) != 0) {
    return Status::Corruption("bad STPQ magic in " + path);
  }
  uint8_t kind = 0;
  if (!in.Read(&kind)) {
    return Status::Corruption("truncated STPQ header in " + path);
  }
  if (kind != kStpqKindEvent && kind != kStpqKindTraj) {
    return Status::Corruption("unknown STPQ record kind in " + path);
  }
  return kind;
}

StatusOr<StpqReader> StpqReader::Open(const std::string& path,
                                      uint8_t expected_kind) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kStpqRead, path));
  StpqReader reader;
  reader.path_ = path;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_.is_open()) {
    return Status::NotFound("no such STPQ file: " + path);
  }
  char header[kStpqHeaderBytes];
  Cursor in(header, ReadBlock(reader.in_, header, sizeof(header)));
  ST4ML_RETURN_IF_ERROR(
      CheckHeader(in, path, expected_kind, &reader.record_count_));
  reader.file_bytes_ = FileSizeBytes(path);
  reader.bytes_read_ = kStpqHeaderBytes;
  return reader;
}

Status StpqReader::CheckRange(uint64_t offset, uint64_t end_offset) const {
  if (offset < kStpqHeaderBytes || end_offset < offset ||
      end_offset > file_bytes_) {
    return Status::Corruption("record range outside file bounds in " + path_);
  }
  return Status::Ok();
}

template <typename RecordT>
Status StpqReader::ReadRunAt(uint64_t offset, uint64_t end_offset,
                             uint64_t count, std::vector<RecordT>* out) {
  ST4ML_RETURN_IF_ERROR(CheckRange(offset, end_offset));
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  if (!in_.good()) return Status::IOError("seek failed in " + path_);
  // CheckRange bounds the run by the file size, so the buffer is too.
  const uint64_t len = end_offset - offset;
  std::unique_ptr<char[]> buf(new char[len]);
  const size_t got = ReadBlock(in_, buf.get(), len);
  Cursor in(buf.get(), got);
  for (uint64_t i = 0; i < count; ++i) {
    ST4ML_RETURN_IF_ERROR(
        ReadOneRecord(in, file_bytes_, path_, &out->emplace_back()));
  }
  // The records must consume EXACTLY the promised run: a sidecar whose
  // offsets disagree with the file is corruption, not silently wrong data.
  if (got != len || in.remaining() != 0) {
    return Status::Corruption("record range mismatch in " + path_);
  }
  bytes_read_ += len;
  return Status::Ok();
}

Status StpqReader::ReadEventsAt(uint64_t offset, uint64_t end_offset,
                                uint64_t count,
                                std::vector<EventRecord>* out) {
  return ReadRunAt(offset, end_offset, count, out);
}

Status StpqReader::ReadTrajsAt(uint64_t offset, uint64_t end_offset,
                               uint64_t count, std::vector<TrajRecord>* out) {
  return ReadRunAt(offset, end_offset, count, out);
}

std::vector<std::string> ListStpqFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".stpq") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

uint64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

Status WriteStpqMeta(const std::string& path,
                     const std::vector<StpqPartMeta>& parts) {
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  // Staged like the record writers: live index.meta files are re-published
  // under readers by the compactor, which must never expose a torn list.
  std::string tmp = TmpPathFor(path);
  std::ofstream out(tmp, std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  out << "stpq-meta v1\n";
  char line[512];
  for (const StpqPartMeta& p : parts) {
    std::snprintf(line, sizeof(line),
                  "%s %.17g %.17g %.17g %.17g %" PRId64 " %" PRId64
                  " %" PRIu64 "\n",
                  p.file.c_str(), p.box.mbr.x_min, p.box.mbr.y_min,
                  p.box.mbr.x_max, p.box.mbr.y_max, p.box.time.start(),
                  p.box.time.end(), p.count);
    out << line;
  }
  // Same explicit flush/close as FinishWrite: the destructor's flush is too
  // late to report an error from.
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + path);
  }
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to close " + path);
  }
  return PublishFileAtomic(tmp, path);
}

StatusOr<std::vector<StpqPartMeta>> ReadStpqMeta(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("no such meta file: " + path);
  std::string header;
  std::getline(in, header);
  if (header != "stpq-meta v1") {
    return Status::Corruption("bad meta header in " + path);
  }
  std::vector<StpqPartMeta> parts;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    StpqPartMeta p;
    double x_min, y_min, x_max, y_max;
    int64_t t_start, t_end;
    if (!(fields >> p.file >> x_min >> y_min >> x_max >> y_max >> t_start >>
          t_end >> p.count)) {
      return Status::Corruption("bad meta line in " + path + ": " + line);
    }
    p.box = STBox(Mbr(x_min, y_min, x_max, y_max), Duration(t_start, t_end));
    parts.push_back(std::move(p));
  }
  return parts;
}

}  // namespace st4ml
