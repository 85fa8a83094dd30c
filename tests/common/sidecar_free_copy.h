#ifndef ST4ML_TESTS_COMMON_SIDECAR_FREE_COPY_H_
#define ST4ML_TESTS_COMMON_SIDECAR_FREE_COPY_H_

#include <filesystem>
#include <string>
#include <system_error>

#include "common/logging.h"

namespace st4ml {
namespace testing {

/// A copy of a built data directory without its `.stix` sidecars, in a
/// sibling directory removed on destruction. A cold Select over the copy
/// serves every file by the linear scan, so the copy is the reference the
/// sidecar (mmap) plan over the original must reproduce byte for byte.
class SidecarFreeCopy {
 public:
  explicit SidecarFreeCopy(const std::string& src) : dir_(src + "_nostix") {
    namespace fs = std::filesystem;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (const auto& entry : fs::directory_iterator(src)) {
      if (!entry.is_regular_file() || entry.path().extension() == ".stix") {
        continue;
      }
      std::error_code ec;
      fs::copy_file(entry.path(), fs::path(dir_) / entry.path().filename(),
                    ec);
      ST4ML_CHECK(!ec) << "copy " << entry.path() << ": " << ec.message();
    }
  }
  ~SidecarFreeCopy() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  SidecarFreeCopy(const SidecarFreeCopy&) = delete;
  SidecarFreeCopy& operator=(const SidecarFreeCopy&) = delete;

  const std::string& dir() const { return dir_; }
  /// The copied metadata sidecar BuildOnDiskIndex wrote.
  std::string meta() const { return dir_ + "/index.meta"; }

 private:
  std::string dir_;
};

}  // namespace testing
}  // namespace st4ml

#endif  // ST4ML_TESTS_COMMON_SIDECAR_FREE_COPY_H_
