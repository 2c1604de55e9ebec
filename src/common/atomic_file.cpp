#include "common/atomic_file.hpp"

#include <algorithm>
#include <fstream>
#include <system_error>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/check.hpp"

namespace ioguard {

namespace {

[[nodiscard]] int current_pid() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(::getpid());
#endif
}

[[nodiscard]] std::filesystem::path temp_path_for(
    const std::filesystem::path& target) {
  std::filesystem::path tmp = target;
  tmp += std::string(atomic_temp_marker()) + std::to_string(current_pid());
  return tmp;
}

}  // namespace

std::string_view atomic_temp_marker() { return ".tmp-ioguard."; }

Status write_file_atomic(const std::filesystem::path& path,
                         std::string_view content) {
  if (path.empty()) return InvalidArgumentError("empty output path");
  const std::filesystem::path tmp = temp_path_for(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return UnavailableError("cannot open " + tmp.string() + " for writing");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return UnavailableError("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return UnavailableError("cannot rename " + tmp.string() + " to " +
                            path.string() + ": " + ec.message());
  }
  return OkStatus();
}

Status AtomicFileWriter::commit() {
  IOGUARD_CHECK_MSG(!committed_, "AtomicFileWriter::commit() called twice");
  committed_ = true;
  if (!buffer_)
    return UnavailableError("buffered write to " + path_.string() + " failed");
  // Moving the string out keeps a large artifact from existing twice.
  return write_file_atomic(path_, std::move(buffer_).str());
}

std::vector<std::string> find_orphaned_temp_files(
    const std::filesystem::path& dir) {
  std::vector<std::string> orphans;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return orphans;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.find(atomic_temp_marker()) != std::string::npos)
      orphans.push_back(entry.path().string());
  }
  std::sort(orphans.begin(), orphans.end());
  return orphans;
}

}  // namespace ioguard
