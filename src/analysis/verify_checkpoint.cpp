#include "analysis/verify_checkpoint.hpp"

#include <sstream>
#include <string>

namespace ioguard::analysis {

void verify_checkpoint(const sys::CheckpointFacts& facts,
                       std::uint64_t expected_fingerprint, Report& report) {
  // --- CKP001: the on-disk pair must be internally consistent -------------
  if (facts.journal_present && !facts.manifest_present) {
    report.add(DiagCode::kCkpStaleManifest,
               "journal exists but its .manifest is missing; the journal "
               "cannot be attributed to a configuration",
               "manifest");
  } else if (facts.manifest_present && !facts.manifest_parsed) {
    report.add(DiagCode::kCkpStaleManifest,
               "manifest exists but does not parse: " + facts.manifest_error,
               "manifest");
  }
  if (!facts.corruption.empty()) {
    report.add(DiagCode::kCkpStaleManifest,
               facts.corruption + "; the checkpoint must not be resumed",
               "journal");
  } else if (facts.truncated_tail) {
    report.add(DiagCode::kCkpStaleManifest, Severity::kInfo,
               "journal ends in a partial frame (crash mid-append); resume "
               "drops the tail and re-runs that trial",
               "journal");
  }

  // --- CKP002: fingerprint must match the resuming configuration ----------
  if (expected_fingerprint != 0 && facts.manifest_parsed &&
      facts.meta.fingerprint != expected_fingerprint) {
    std::ostringstream os;
    os << "manifest fingerprint " << std::hex << facts.meta.fingerprint
       << " differs from the requested configuration's "
       << expected_fingerprint << std::dec << " (journal config: '"
       << facts.meta.config_echo << "')";
    report.add(DiagCode::kCkpConfigMismatch, std::move(os).str(), "manifest");
  }

  // --- CKP003: staging files mean a writer died mid-publish ---------------
  if (!facts.orphaned_temps.empty()) {
    std::string names;
    for (const auto& orphan : facts.orphaned_temps) {
      if (!names.empty()) names += ", ";
      names += orphan;
    }
    report.add(DiagCode::kCkpOrphanedTempFiles,
               std::to_string(facts.orphaned_temps.size()) +
                   " stale atomic-write staging file(s): " + names +
                   "; a previous writer crashed mid-publish (targets are "
                   "intact; delete the staging files)",
               "directory");
  }

  // --- CKP004: abandoned trials thin out the aggregates -------------------
  if (facts.abandoned > 0) {
    report.add(DiagCode::kCkpAbandonedTrials,
               std::to_string(facts.abandoned) + " of " +
                   std::to_string(facts.records) +
                   " journaled trial(s) are abandoned and will be excluded "
                   "from resumed aggregates",
               "journal");
  }
}

}  // namespace ioguard::analysis
