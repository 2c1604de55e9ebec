// Atomic (all-or-nothing) file writes: content is staged in a sibling
// temporary file and renamed over the target only after a successful flush,
// so a crash mid-write can never leave a torn output file behind. Every
// exporter that produces a consumable artifact (summary JSON, Prometheus
// text, Perfetto traces, bench reports, checkpoint manifests) routes
// through here.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace ioguard {

/// Suffix marker of staging files ("<target>.<marker><pid>"). Exposed so the
/// checkpoint verifier can flag orphans left behind by a crashed writer.
[[nodiscard]] std::string_view atomic_temp_marker();

/// Writes `content` to `path` atomically (temp file + rename). On any
/// failure the target is left untouched and the temp file is removed.
[[nodiscard]] Status write_file_atomic(const std::filesystem::path& path,
                                       std::string_view content);

/// Stream-style atomic writer: construction opens the staging file
/// `<target><atomic_temp_marker()><pid>`, `stream()` writes straight into
/// it, and `commit()` flushes, checks the stream and renames it over the
/// target, so an artifact is never held in memory. Destroying the writer
/// without committing removes the staging file (nothing touches the
/// target).
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::filesystem::path path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;
  AtomicFileWriter(AtomicFileWriter&&) = delete;
  AtomicFileWriter& operator=(AtomicFileWriter&&) = delete;

  [[nodiscard]] std::ostream& stream() { return out_; }

  /// Publishes the written content: InvalidArgument for an empty path,
  /// Unavailable when the staging file could not be opened or written or
  /// the rename failed (the target is then untouched and the staging file
  /// removed). Calling commit() twice is a programming error (checked).
  [[nodiscard]] Status commit();

 private:
  /// Removes the staging file if this writer created it.
  void discard();

  std::filesystem::path path_;
  std::filesystem::path tmp_;
  // IOGUARD_LINT_ALLOW(LNT005: the staging file; commit() renames it)
  std::ofstream out_;
  bool opened_ = false;
  bool committed_ = false;
};

/// Staging files matching `atomic_temp_marker()` in `dir` (non-recursive),
/// sorted by filename. A non-empty result after a run means a writer
/// crashed mid-publish (checkpoint diagnostic CKP003). A missing or
/// unreadable directory yields an empty list.
[[nodiscard]] std::vector<std::string> find_orphaned_temp_files(
    const std::filesystem::path& dir);

}  // namespace ioguard
