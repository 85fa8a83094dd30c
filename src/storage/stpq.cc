#include "storage/stpq.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/fault_injector.h"
#include "storage/atomic_publish.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

// Minimum wire size of a trajectory, for clamping an untrusted header count
// before reserve() (kStpqMinEventBytes is an event's): id + npoints.
constexpr uint64_t kMinTrajRecordBytes = 8 + 8;
constexpr uint64_t kTrajPointBytes = 8 + 8 + 8;

template <typename T>
void WriteRaw(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
void AppendRaw(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// FNV-1a: the header fingerprint of StpqIdentity and the checksum of an
// index.meta body.
uint64_t Fnv1a(const char* data, size_t len) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (size_t i = 0; i < len; ++i) {
    hash ^= static_cast<uint8_t>(data[i]);
    hash *= 1099511628211ull;  // FNV-1a prime
  }
  return hash;
}

// A stat mtime in file_time_type ticks: the same stamp FileMtimeStamp gets
// from fs::last_write_time, whose clock has its own epoch.
int64_t MtimeStamp(const struct stat& st) {
  using namespace std::chrono;
  const sys_time<nanoseconds> mtime(seconds(st.st_mtim.tv_sec) +
                                    nanoseconds(st.st_mtim.tv_nsec));
  return static_cast<int64_t>(
      time_point_cast<file_clock::duration>(file_clock::from_sys(mtime))
          .time_since_epoch()
          .count());
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

Status CheckHeader(StpqCursor& in, const std::string& path,
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

// A trajectory's points are decoded with one copy: the in-memory point is
// exactly the on-disk x, y, time triple.
static_assert(sizeof(TrajPointRecord) == kTrajPointBytes &&
              offsetof(TrajPointRecord, x) == 0 &&
              offsetof(TrajPointRecord, y) == 8 &&
              offsetof(TrajPointRecord, time) == 16 &&
              std::is_trivially_copyable_v<TrajPointRecord>);

// The trajectory decoder behind StpqReader, DecodeStpqRecord's twin.
Status DecodeStpqRecord(StpqCursor& in, const std::string& path,
                        TrajRecord* r) {
  uint64_t n = 0;
  if (!in.Read(&r->id) || !in.Read(&n)) {
    return Status::Corruption("truncated STPQ record in " + path);
  }
  // Divide, never multiply: `n * 24` wraps for n near 2^64.
  const char* points = nullptr;
  if (n > in.remaining() / kTrajPointBytes ||
      !in.Skip(n * kTrajPointBytes, &points)) {
    return Status::Corruption("implausible point count in " + path);
  }
  r->points.resize(n);
  if (n > 0) std::memcpy(r->points.data(), points, n * kTrajPointBytes);
  return Status::Ok();
}

}  // namespace

void EncodeStpqRecord(const EventRecord& r, std::string* out) {
  AppendRaw(out, r.id);
  AppendRaw(out, r.x);
  AppendRaw(out, r.y);
  AppendRaw(out, r.time);
  AppendRaw(out, static_cast<uint32_t>(r.attr.size()));
  out->append(r.attr.data(), r.attr.size());
}

Status DecodeStpqRecord(StpqCursor& in, const std::string& path,
                        EventRecord* r) {
  uint32_t len = 0;
  if (!in.Read(&r->id) || !in.Read(&r->x) || !in.Read(&r->y) ||
      !in.Read(&r->time) || !in.Read(&len)) {
    return Status::Corruption("truncated STPQ record in " + path);
  }
  const char* attr = nullptr;
  if (!in.Skip(len, &attr)) {
    return Status::Corruption("implausible attr length in " + path);
  }
  r->attr.assign(attr, len);
  return Status::Ok();
}

Status WriteStpqFile(const std::string& path,
                     const std::vector<EventRecord>& records,
                     uint64_t* io_bytes) {
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(
      OpenForWrite(path, kStpqKindEvent, records.size(), &out));
  // One record's bytes at a time, through one reused buffer.
  std::string bytes;
  for (const EventRecord& r : records) {
    bytes.clear();
    EncodeStpqRecord(r, &bytes);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

StatusOr<uint8_t> ReadStpqKind(const std::string& path) {
  std::string header;
  auto opened = StpqReader::OpenFile(path, &header);
  if (!opened.ok()) return opened.status();
  StpqCursor in(header.data(), header.size());
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

StatusOr<int64_t> FileMtimeStamp(const std::string& path) {
  std::error_code ec;
  auto mtime = fs::last_write_time(path, ec);
  if (ec) return Status::IOError("cannot stat mtime of " + path);
  return static_cast<int64_t>(mtime.time_since_epoch().count());
}

StatusOr<StpqIdentity> ReadStpqIdentity(const std::string& path) {
  std::string header;
  auto opened = StpqReader::OpenFile(path, &header);
  if (!opened.ok()) return opened.status();
  if (header.size() != kStpqHeaderBytes) {
    return Status::IOError("cannot read stpq header of " + path);
  }
  return opened->identity();
}

StatusOr<uint64_t> StpqHeaderFingerprint(const std::string& stpq_path) {
  auto identity = ReadStpqIdentity(stpq_path);
  if (!identity.ok()) return identity.status();
  return identity->header_fingerprint;
}

StpqReader::~StpqReader() {
  if (fd_ >= 0) ::close(fd_);
}

StpqReader::StpqReader(StpqReader&& other) noexcept {
  *this = std::move(other);
}

StpqReader& StpqReader::operator=(StpqReader&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = std::exchange(other.fd_, -1);
  path_ = std::move(other.path_);
  identity_ = other.identity_;
  record_count_ = other.record_count_;
  bytes_read_ = other.bytes_read_;
  read_calls_ = other.read_calls_;
  buf_ = std::move(other.buf_);
  buf_bytes_ = std::exchange(other.buf_bytes_, 0);
  return *this;
}

// The one open behind both ReadStpqIdentity and Open: the identity comes
// from the descriptor's fstat and the header bytes read through it, so the
// sidecar builder and the validator see the same file the same way.
// `header` receives up to kStpqHeaderBytes (fewer for a short file).
StatusOr<StpqReader> StpqReader::OpenFile(const std::string& path,
                                          std::string* header) {
  StpqReader reader;
  reader.path_ = path;
  reader.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (reader.fd_ < 0) {
    if (errno == ENOENT) return Status::NotFound("no such STPQ file: " + path);
    return Status::IOError("cannot open " + path);
  }
  struct stat st;
  if (::fstat(reader.fd_, &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  reader.identity_.size = static_cast<uint64_t>(st.st_size);
  reader.identity_.mtime_stamp = MtimeStamp(st);
  char bytes[kStpqHeaderBytes];
  const ssize_t got = ::pread(reader.fd_, bytes, sizeof(bytes), 0);
  if (got < 0) return Status::IOError("cannot read " + path);
  header->assign(bytes, static_cast<size_t>(got));
  reader.identity_.header_fingerprint = Fnv1a(header->data(), header->size());
  return reader;
}

StatusOr<StpqReader> StpqReader::Open(const std::string& path,
                                      uint8_t expected_kind) {
  std::string header;
  auto reader = OpenFile(path, &header);
  if (!reader.ok()) return reader.status();
  StpqCursor in(header.data(), header.size());
  ST4ML_RETURN_IF_ERROR(
      CheckHeader(in, path, expected_kind, &reader->record_count_));
  reader->bytes_read_ = kStpqHeaderBytes;
  return reader;
}

// One covering read of [begin, end) into buf_, looping only if the kernel
// returns short (end of file ends the loop); `got` is the bytes read.
Status StpqReader::ReadSpan(uint64_t begin, uint64_t end, size_t* got) {
  const uint64_t len = end - begin;
  *got = 0;
  if (len == 0) return Status::Ok();
  if (buf_bytes_ < len) {
    buf_.reset(new char[len]);
    buf_bytes_ = len;
  }
  while (*got < len) {
    const ssize_t n = ::pread(fd_, buf_.get() + *got, len - *got,
                              static_cast<off_t>(begin + *got));
    ++read_calls_;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed in " + path_);
    }
    if (n == 0) break;
    *got += static_cast<size_t>(n);
  }
  bytes_read_ += *got;
  return Status::Ok();
}

template <typename RecordT>
Status StpqReader::ReadRuns(std::span<const StpqRun> runs,
                            std::vector<RecordT>* out) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kStpqRead, path_));
  // Every run lies inside the record bytes, after its predecessor: a span
  // then never decodes one byte twice, so no record can come out twice.
  uint64_t prev_end = kStpqHeaderBytes;
  for (const StpqRun& run : runs) {
    if (run.offset < kStpqHeaderBytes || run.end_offset < run.offset ||
        run.end_offset > identity_.size) {
      return Status::Corruption("record range outside file bounds in " +
                                path_);
    }
    if (run.offset < prev_end) {
      return Status::Corruption("record runs overlap or go backwards in " +
                                path_);
    }
    prev_end = run.end_offset;
  }
  size_t first = 0;
  while (first < runs.size()) {
    size_t last = first + 1;
    while (last < runs.size() &&
           runs[last].offset - runs[last - 1].end_offset <=
               kStpqReadHoleLimit) {
      ++last;
    }
    const uint64_t begin = runs[first].offset;
    size_t got = 0;
    ST4ML_RETURN_IF_ERROR(ReadSpan(begin, runs[last - 1].end_offset, &got));
    for (size_t r = first; r < last; ++r) {
      const StpqRun& run = runs[r];
      const uint64_t at = run.offset - begin;
      const uint64_t len = run.end_offset - run.offset;
      // A span cut short (the file shrank after Open) leaves the runs past
      // the cut fewer bytes than they were promised.
      const uint64_t have = at >= got ? 0 : std::min<uint64_t>(got - at, len);
      StpqCursor in(buf_.get() + at, static_cast<size_t>(have));
      for (uint64_t i = 0; i < run.count; ++i) {
        ST4ML_RETURN_IF_ERROR(
            DecodeStpqRecord(in, path_, &out->emplace_back()));
      }
      // The records must consume EXACTLY the promised run: a sidecar whose
      // offsets disagree with the file is corruption, not silently wrong
      // data.
      if (have != len || in.remaining() != 0) {
        return Status::Corruption("record range mismatch in " + path_);
      }
    }
    first = last;
  }
  return Status::Ok();
}

template <typename RecordT>
Status StpqReader::ReadAll(std::vector<RecordT>* out) {
  constexpr uint64_t min_record_bytes =
      std::is_same_v<RecordT, EventRecord> ? kStpqMinEventBytes
                                           : kMinTrajRecordBytes;
  out->reserve(out->size() +
               static_cast<size_t>(std::min(
                   record_count_, identity_.size / min_record_bytes)));
  const StpqRun body{kStpqHeaderBytes, identity_.size, record_count_};
  Status read = ReadRuns(std::span(&body, 1), out);
  buf_.reset();
  buf_bytes_ = 0;
  return read;
}

template <typename RecordT>
StatusOr<std::vector<RecordT>> ReadStpqFile(const std::string& path,
                                            uint64_t* io_bytes) {
  auto reader = StpqReader::Open(path, StpqKindOf<RecordT>());
  if (!reader.ok()) return reader.status();
  std::vector<RecordT> records;
  ST4ML_RETURN_IF_ERROR(reader->ReadAll(&records));
  if (io_bytes != nullptr) *io_bytes += reader->bytes_read();
  return records;
}

template Status StpqReader::ReadRuns(std::span<const StpqRun>,
                                     std::vector<EventRecord>*);
template Status StpqReader::ReadRuns(std::span<const StpqRun>,
                                     std::vector<TrajRecord>*);
template Status StpqReader::ReadAll(std::vector<EventRecord>*);
template Status StpqReader::ReadAll(std::vector<TrajRecord>*);
template StatusOr<std::vector<EventRecord>> ReadStpqFile(const std::string&,
                                                         uint64_t*);
template StatusOr<std::vector<TrajRecord>> ReadStpqFile(const std::string&,
                                                        uint64_t*);

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

namespace {

constexpr std::string_view kMetaHeader = "stpq-meta v2";

// Names the manifest may list: plain file names inside the directory, free
// of the space and newline the line format splits on.
bool IsPlainFileName(std::string_view name) {
  if (name.empty() || name == "." || name == "..") return false;
  return std::none_of(name.begin(), name.end(), [](char c) {
    return c == '/' || static_cast<unsigned char>(c) <= ' ';
  });
}

// The last line of a manifest whose preceding bytes are `body`.
std::string MetaChecksumLine(std::string_view body) {
  char line[32];
  std::snprintf(line, sizeof(line), "fnv1a %016" PRIx64 "\n",
                Fnv1a(body.data(), body.size()));
  return line;
}

std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t begin = 0;
  while (begin <= line.size()) {
    size_t end = line.find(' ', begin);
    if (end == std::string_view::npos) end = line.size();
    fields.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
  return fields;
}

// Whole-field parses: from_chars reads back every value %.17g / PRId64 /
// PRIu64 print, including inf and nan, and a field with trailing bytes fails.
template <typename T>
bool ParseField(std::string_view field, T* value) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

bool ParsePartLine(const std::vector<std::string_view>& f, StpqPartMeta* p) {
  double x_min, y_min, x_max, y_max;
  int64_t t_start, t_end;
  if (f.size() != 9 || !IsPlainFileName(f[1]) ||
      !ParseField(f[2], &x_min) || !ParseField(f[3], &y_min) ||
      !ParseField(f[4], &x_max) || !ParseField(f[5], &y_max) ||
      !ParseField(f[6], &t_start) || !ParseField(f[7], &t_end) ||
      !ParseField(f[8], &p->count)) {
    return false;
  }
  p->file = std::string(f[1]);
  p->box = STBox(Mbr(x_min, y_min, x_max, y_max), Duration(t_start, t_end));
  return true;
}

}  // namespace

Status WriteStpqMeta(const std::string& path, const StpqManifest& manifest) {
  std::string text(kMetaHeader);
  text += "\ngen " + std::to_string(manifest.generation) + "\n";
  char line[512];
  for (const StpqPartMeta& p : manifest.parts) {
    if (!IsPlainFileName(p.file)) {
      return Status::InvalidArgument("not a plain file name: " + p.file);
    }
    std::snprintf(line, sizeof(line),
                  " %.17g %.17g %.17g %.17g %" PRId64 " %" PRId64 " %" PRIu64
                  "\n",
                  p.box.mbr.x_min, p.box.mbr.y_min, p.box.mbr.x_max,
                  p.box.mbr.y_max, p.box.time.start(), p.box.time.end(),
                  p.count);
    text += "part " + p.file + line;
  }
  for (const std::string& name : manifest.consumed) {
    if (!IsPlainFileName(name)) {
      return Status::InvalidArgument("not a plain file name: " + name);
    }
    text += "consumed " + name + "\n";
  }
  text += MetaChecksumLine(text);

  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  // Staged like the record writers: the compactor re-publishes a live
  // index.meta under readers, which must never see a torn list.
  std::ofstream out(TmpPathFor(path), std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return FinishWrite(out, path, nullptr);
}

StatusOr<StpqManifest> ReadStpqMeta(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("no such meta file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = std::move(buffer).str();
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(what + " in " + path);
  };

  const std::string_view text(bytes);
  const size_t header_end = text.find('\n');
  const std::string_view header = text.substr(0, header_end);
  if (header == "stpq-meta v1" || header == "st4ml-ingest v1") {
    return corrupt("meta format " + std::string(header) +
                   " is no longer read; rebuild the directory");
  }
  if (header != kMetaHeader) return corrupt("bad meta header");
  // The checksum line covers every byte before it, so any change to the
  // part list — even one that leaves each line well-formed — fails closed.
  const size_t last = text.rfind('\n', text.size() - 2);
  if (text.back() != '\n' || last == std::string_view::npos) {
    return corrupt("missing meta checksum line");
  }
  const size_t body_end = last + 1;
  if (text.substr(body_end) != MetaChecksumLine(text.substr(0, body_end))) {
    return corrupt("meta checksum mismatch");
  }

  StpqManifest manifest;
  bool has_gen = false;
  size_t pos = header_end + 1;
  while (pos < body_end) {
    const size_t end = text.find('\n', pos);
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    const std::vector<std::string_view> f = SplitFields(line);
    if (f[0] == "gen" && !has_gen && f.size() == 2 &&
        ParseField(f[1], &manifest.generation)) {
      has_gen = true;
    } else if (f[0] == "part" && has_gen) {
      StpqPartMeta part;
      if (!ParsePartLine(f, &part)) {
        return corrupt("bad meta part line '" + std::string(line) + "'");
      }
      manifest.parts.push_back(std::move(part));
    } else if (f[0] == "consumed" && has_gen && f.size() == 2 &&
               IsPlainFileName(f[1])) {
      manifest.consumed.emplace_back(f[1]);
    } else {
      return corrupt("bad meta line '" + std::string(line) + "'");
    }
  }
  if (!has_gen) return corrupt("meta has no gen line");
  return manifest;
}

}  // namespace st4ml
