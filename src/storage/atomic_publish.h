#ifndef ST4ML_STORAGE_ATOMIC_PUBLISH_H_
#define ST4ML_STORAGE_ATOMIC_PUBLISH_H_

// Crash-safe file publication (DESIGN.md §13). Every persistent artifact
// writer in the repo (STPQ partitions, `.stix` sidecars, metadata files,
// WAL manifests) follows the same protocol: build the complete file under
// `<final>.tmp`, fsync it, rename(2) onto the final name, then fsync the
// parent directory so the rename itself is durable. A reader therefore
// either sees the old complete file, the new complete file, or (first
// write) no file — never a torn prefix under the final name. A crash can
// strand a `*.tmp`, which the next truncating writer simply overwrites.

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/status.h"

namespace st4ml {

/// The temp name the atomic-publish protocol stages under. One writer per
/// final path at a time (partition names are unique per generation), so a
/// fixed suffix cannot collide.
inline std::string TmpPathFor(const std::string& final_path) {
  return final_path + ".tmp";
}

/// fsync one existing file by path. An error here means the bytes may not
/// survive a power cut — surface it rather than publish a maybe-file.
inline Status FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for fsync: " + path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed for " + path);
  return Status::Ok();
}

/// fsync the directory holding `path`, making a just-completed rename in it
/// durable. Best effort on filesystems that reject directory fsync.
inline Status FsyncParentDir(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  std::string dir = parent.empty() ? std::string(".") : parent.string();
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Ok();  // e.g. O_DIRECTORY unsupported target
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed for directory " + dir);
  return Status::Ok();
}

/// The publish step: fsync the staged temp file, rename it over the final
/// name, fsync the parent directory. The temp file is consumed on success
/// and removed on failure, so no path ever keeps a torn artifact.
inline Status PublishFileAtomic(const std::string& tmp_path,
                                const std::string& final_path) {
  Status synced = FsyncPath(tmp_path);
  if (!synced.ok()) {
    std::remove(tmp_path.c_str());
    return synced;
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot publish " + final_path);
  }
  return FsyncParentDir(final_path);
}

/// Flushes and closes `out`, checking after each step. An ofstream's final
/// flush otherwise happens in its DESTRUCTOR, after any good() check a
/// function-body return could make, so a disk-full error on the last
/// buffer would be reported as Ok. Every ofstream writer in src/ ends
/// through this (staged ones via FinishWrite).
inline Status FlushAndClose(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out.good()) {
    out.close();
    return Status::IOError("short write to " + path);
  }
  out.close();
  if (out.fail()) return Status::IOError("failed to close " + path);
  return Status::Ok();
}

/// The epilogue of every staged writer (STPQ files, `.stix` sidecars):
/// `out` was opened on TmpPathFor(path). FlushAndClose it, then publish it
/// onto `path`; the temp file is removed on any failure. Adds the bytes
/// written to *io_bytes when non-null.
inline Status FinishWrite(std::ofstream& out, const std::string& path,
                          uint64_t* io_bytes) {
  std::string tmp = TmpPathFor(path);
  out.flush();
  // tellp() is -1 on a failed stream, which must not wrap *io_bytes; the
  // failure itself is reported by FlushAndClose.
  std::streamoff pos = static_cast<std::streamoff>(out.tellp());
  Status closed = FlushAndClose(out, path);
  if (!closed.ok()) {
    std::remove(tmp.c_str());
    return closed;
  }
  ST4ML_RETURN_IF_ERROR(PublishFileAtomic(tmp, path));
  if (io_bytes != nullptr && pos >= 0) {
    *io_bytes += static_cast<uint64_t>(pos);
  }
  return Status::Ok();
}

}  // namespace st4ml

#endif  // ST4ML_STORAGE_ATOMIC_PUBLISH_H_
