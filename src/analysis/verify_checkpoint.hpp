// Static verification of checkpoint/resume artifacts (CKPxxx codes).
//
// Operates on a CheckpointFacts summary produced by sys::inspect_checkpoint
// (a read-only scan: nothing is created, truncated or repaired), so the
// analysis library stays free of any journal I/O. Checks:
//   CKP001 (error)   stale manifest: the pair on disk is inconsistent --
//                    a journal with no readable manifest, or a manifest
//                    that fails to parse;
//   CKP002 (error)   config mismatch: the manifest fingerprint differs from
//                    the configuration the caller is about to resume with;
//   CKP003 (warning) orphaned atomic-write staging files next to the
//                    checkpoint (a writer crashed mid-publish);
//   CKP004 (warning) abandoned trials in the journal: the resumed sweep's
//                    aggregates will exclude them.
// A corrupt journal (bad frame magic, CRC failure, or a CRC-valid record
// that does not decode, each named in the message) or a truncated tail is
// reported under CKP001 as well: both make the manifest's promise about the
// journal stale.
#pragma once

#include <cstdint>

#include "analysis/diagnostics.hpp"
#include "system/checkpoint.hpp"

namespace ioguard::analysis {

/// Appends CKP001..CKP004 findings for `facts` to `report`.
/// `expected_fingerprint` enables the CKP002 config cross-check; pass 0 to
/// skip it (e.g. when inspecting a checkpoint without knowing the flags it
/// was created under).
void verify_checkpoint(const sys::CheckpointFacts& facts,
                       std::uint64_t expected_fingerprint, Report& report);

}  // namespace ioguard::analysis
