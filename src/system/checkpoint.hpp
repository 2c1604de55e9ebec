// Crash-safe checkpointing of trial fan-outs (DESIGN.md §12).
//
// A checkpoint is two files:
//   <path>           append-only record journal: one framed, CRC-guarded
//                    binary record per finished trial (O_APPEND-style
//                    appends, flushed per record);
//   <path>.manifest  small text header (format version, config fingerprint,
//                    planned trial count, config echo), published via
//                    atomic temp-file+rename.
//
// Reload tolerates a truncated trailing frame -- the signature of a crash
// mid-append -- by dropping it, but rejects checksum corruption inside the
// retained prefix with a clear DataLoss status. Records serialize the full
// TrialResult (doubles as IEEE-754 bit patterns, SampleSet in insertion
// order, OnlineStats as raw Welford state, HDR histograms as their non-empty
// buckets) plus the trial's private metrics
// delta, so a resumed sweep merges restored trials bit-identically to an
// uninterrupted run at any --jobs value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/sync.hpp"
#include "system/config.hpp"
#include "system/runner.hpp"
#include "telemetry/metrics.hpp"

namespace ioguard::sys {

/// Exit code of the --crash-after=N chaos hook: the process dies with
/// std::_Exit (no unwinding, no flush) to model a SIGKILL at an arbitrary
/// trial boundary, and CI asserts this exact code to tell a simulated crash
/// from a genuine failure.
inline constexpr int kCrashHookExitCode = 70;

/// Header of one checkpoint (the manifest contents).
struct CheckpointMeta {
  std::uint64_t fingerprint = 0;   ///< fnv1a64 over the canonical config
  std::uint64_t planned_trials = 0;
  std::string config_echo;         ///< one-line human-readable config
};

/// One journaled trial.
struct CheckpointRecord {
  std::uint64_t point_key = 0;
  std::uint32_t trial = 0;
  bool abandoned = false;     ///< trial kept throwing; result is a placeholder
  bool has_metrics = false;   ///< a metrics delta was captured
  TrialResult result;
  std::string metrics_blob;   ///< encode_metrics snapshot when has_metrics
  std::string note;           ///< abandonment reason, empty otherwise
};

/// Read-only summary of a checkpoint pair on disk, for the CKP verifier.
struct CheckpointFacts {
  bool journal_present = false;
  bool manifest_present = false;
  bool manifest_parsed = false;   ///< manifest existed and parsed cleanly
  std::string manifest_error;     ///< why it did not parse, when it did not
  CheckpointMeta meta;            ///< valid when manifest_parsed
  std::size_t records = 0;        ///< CRC-valid records in the journal
  std::size_t abandoned = 0;      ///< records flagged abandoned
  bool truncated_tail = false;    ///< journal ends in a partial frame
  std::string corruption;  ///< why a retained frame failed; empty if none
  std::vector<std::string> orphaned_temps;  ///< stale atomic-write staging files
};

/// The append-only per-trial journal plus its manifest.
class CheckpointJournal {
 public:
  /// Opens `path` for writing. `resume == false` starts fresh (truncates any
  /// existing pair); `resume == true` reloads every intact record and
  /// refuses a manifest whose fingerprint differs from `meta.fingerprint`
  /// (FailedPrecondition, diagnostic CKP002) or a journal with checksum
  /// corruption (DataLoss). A truncated trailing frame is dropped silently
  /// (it is the expected crash signature).
  [[nodiscard]] static StatusOr<std::unique_ptr<CheckpointJournal>> open(
      const std::string& path, const CheckpointMeta& meta, bool resume);

  /// The reloaded record for (point_key, trial), or nullptr.
  [[nodiscard]] const CheckpointRecord* find(std::uint64_t point_key,
                                             std::uint32_t trial) const;

  /// Appends one finished trial and flushes the frame. Thread-safe.
  [[nodiscard]] Status append(std::uint64_t point_key, std::uint32_t trial,
                              bool abandoned, const TrialResult& result,
                              const telemetry::MetricsRegistry* metrics,
                              const std::string& note = {});

  [[nodiscard]] std::size_t loaded() const { return records_.size(); }
  [[nodiscard]] bool truncated_tail() const { return truncated_tail_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Chaos hook: die with std::_Exit(kCrashHookExitCode) immediately after
  /// the n-th successful append of this process (0 = disabled). Exercised
  /// by the chaos-resume CI job to SIGKILL-interrupt a sweep at a
  /// deterministic trial boundary.
  void set_crash_after(std::size_t n) {
    const MutexLock lock(mutex_);
    crash_after_ = n;
  }

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;
  ~CheckpointJournal();

 private:
  CheckpointJournal() = default;

  std::string path_;
  // Written only inside open() (single-threaded setup), read-only afterwards
  // (find() during the restore pass); appends never touch the in-memory map.
  std::map<std::pair<std::uint64_t, std::uint32_t>, CheckpointRecord>
      records_;
  bool truncated_tail_ = false;
  Mutex mutex_;  ///< serializes appends
  std::size_t crash_after_ IOGUARD_GUARDED_BY(mutex_) = 0;
  std::size_t appended_ IOGUARD_GUARDED_BY(mutex_) = 0;
  struct Sink;  ///< append-mode file handle
  std::unique_ptr<Sink> sink_ IOGUARD_PT_GUARDED_BY(mutex_);
};

/// Read-only inspection of a checkpoint pair (never creates or truncates
/// anything); feeds the CKP001-CKP004 diagnostics.
[[nodiscard]] CheckpointFacts inspect_checkpoint(const std::string& path);

/// Journal key of one (system, preload, vms, utilization) batch. Unlike
/// sweep_point_key -- which deliberately excludes the system under test so
/// all systems see identical workloads -- the checkpoint key must tell the
/// five Fig. 7 systems at one sweep point apart, so it folds the system
/// kind and preload fraction in. `salt` disambiguates batches a driver runs
/// with otherwise identical parameters (e.g. ablation policy variants).
[[nodiscard]] std::uint64_t checkpoint_point_key(SystemKind kind,
                                                 double preload_fraction,
                                                 std::size_t num_vms,
                                                 double target_utilization,
                                                 std::uint64_t salt = 0);

/// Canonical single-point config string shared by ioguard_cli and
/// ioguard_verify; its fnv1a64 hash is the manifest fingerprint. Excludes
/// --jobs (resuming at a different fan-out width is supported and
/// bit-identical) and telemetry flags (metrics presence is tracked per
/// record instead). Mixed-criticality parameters contribute tokens only
/// when the respective feature is on, so pre-MCS fingerprints are stable.
[[nodiscard]] std::string point_config_string(
    SystemKind kind, std::size_t num_vms, double target_utilization,
    double preload_fraction, std::size_t trials, std::size_t min_jobs,
    std::uint64_t seed, const faults::FaultPlan& plan,
    const faults::ResilienceConfig& resilience,
    bool mixed_criticality = false,
    const core::ModeSwitchConfig& mode_switch = {});

}  // namespace ioguard::sys
