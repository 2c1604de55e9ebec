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
  AtomicFileWriter out(path);
  out.stream().write(content.data(),
                     static_cast<std::streamsize>(content.size()));
  return out.commit();
}

AtomicFileWriter::AtomicFileWriter(std::filesystem::path path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  tmp_ = temp_path_for(path_);
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  opened_ = out_.is_open();
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) discard();
}

void AtomicFileWriter::discard() {
  out_.close();
  if (!opened_) return;  // never remove a file this writer did not create
  std::error_code ignored;
  std::filesystem::remove(tmp_, ignored);
}

Status AtomicFileWriter::commit() {
  IOGUARD_CHECK_MSG(!committed_, "AtomicFileWriter::commit() called twice");
  committed_ = true;
  if (path_.empty()) return InvalidArgumentError("empty output path");
  if (!opened_)
    return UnavailableError("cannot open " + tmp_.string() + " for writing");
  out_.flush();
  out_.close();
  if (!out_) {
    discard();
    return UnavailableError("short write to " + tmp_.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    discard();
    return UnavailableError("cannot rename " + tmp_.string() + " to " +
                            path_.string() + ": " + ec.message());
  }
  return OkStatus();
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
