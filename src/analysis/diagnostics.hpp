// Structured diagnostics for the static verifier (ioguard-verify).
//
// Every check failure is reported as a Diagnostic with a *stable* code
// (e.g. "SIG003"): tests key on codes, CI greps for them, and downstream
// tooling can suppress or escalate individual codes without parsing prose.
// Codes are grouped by artifact family:
//   SIGxxx -- Time Slot Table sigma* invariants        (verify_table)
//   SUPxxx -- supply/demand bound cross-checks         (verify_supply)
//   LVLxxx -- L-level (per-VM server) checks           (verify_servers)
//   CFGxxx -- experiment / platform config sanity      (verify_config)
//   RESxxx -- fault plan / resilience policy sanity    (verify_resilience)
//   CKPxxx -- checkpoint / resume artifact sanity      (verify_checkpoint)
//   ADMxxx -- admission service engine coherence       (verify_service)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ioguard::analysis {

enum class Severity : std::uint8_t {
  kInfo,     ///< observation, never fails a run
  kWarning,  ///< suspicious but not provably wrong
  kError,    ///< artifact is inconsistent; downstream results are void
};

[[nodiscard]] const char* to_string(Severity s);

/// Stable diagnostic codes. Never renumber an existing entry; append only.
enum class DiagCode : std::uint16_t {
  // --- sigma* Time Slot Table invariants --------------------------------
  kSigFreeCountMismatch = 101,   ///< SIG001: F disagrees with raw()/task demand
  kSigUnknownOccupant = 102,     ///< SIG002: slot owned by a non-predefined task
  kSigJobUnderAllocated = 103,   ///< SIG003: a job gets < C slots by deadline
  kSigTaskSlotSurplus = 104,     ///< SIG004: task owns more slots than C*H/T
  kSigSlotOutsideWindow = 105,   ///< SIG005: reserved slot serves no job window
  kSigPeriodNotDividingH = 106,  ///< SIG006: task period does not divide H
  kSigBadPredefinedTask = 107,   ///< SIG007: invalid (T,C,D,offset) parameters

  // --- supply/demand bound functions ------------------------------------
  kSupNonMonotone = 201,         ///< SUP001: sbf decreases
  kSupSuperadditivity = 202,     ///< SUP002: sbf(a)+sbf(b) > sbf(a+b)
  kSupPeriodicExtension = 203,   ///< SUP003: sbf(t+H) != sbf(t)+F (Eq. 2)
  kSupZeroSlack = 204,           ///< SUP004: c = F/H - sum(Theta/Pi) <= 0
  kSupTheoremDisagreement = 205, ///< SUP005: Theorem 1 vs Theorem 2 differ
  kSupExceedsWindow = 206,       ///< SUP006: sbf(t) > t
  kSupCheckSkipped = 207,        ///< SUP007: agreement bound too large (info)

  // --- L-level (per-VM server) checks ------------------------------------
  kLvlBadServerParams = 301,     ///< LVL001: Pi == 0 or Theta > Pi
  kLvlDeadlineExceedsPeriod = 302, ///< LVL002: D > T in a VM task set
  kLvlBandwidthDeficit = 303,    ///< LVL003: Theta/Pi < VM utilization
  kLvlTheoremDisagreement = 304, ///< LVL004: Theorem 3 vs Theorem 4 differ
  kLvlServerCountMismatch = 305, ///< LVL005: |servers| != |vm task sets|
  kLvlBadTaskParams = 306,       ///< LVL006: T, C or D is zero
  kLvlCheckSkipped = 307,        ///< LVL007: agreement bound too large (info)

  // --- platform / experiment configuration -------------------------------
  kCfgBadNocDims = 401,          ///< CFG001: mesh cannot host the floorplan
  kCfgVmPlacementOverflow = 402, ///< CFG002: more VMs than compute nodes
  kCfgUnknownDevice = 403,       ///< CFG003: task references absent device
  kCfgVmOutOfRange = 404,        ///< CFG004: task assigned to VM >= num_vms
  kCfgBadFraction = 405,         ///< CFG005: utilization/preload out of range
  kCfgDegenerateExperiment = 406,///< CFG006: zero trials or zero jobs/task

  // --- fault plan / resilience policy -------------------------------------
  kResRateOutOfRange = 501,      ///< RES001: fault rate outside [0, 1]
  kResWatchdogZero = 502,        ///< RES002: watchdog timeout of 0 slots
  kResBackoffOverflow = 503,     ///< RES003: final retry backoff overflows
  kResRetryBudgetExcessive = 504,///< RES004: max_retries above the 16 cap
  kResWatchdogIneffective = 505, ///< RES005: stalls end before the watchdog
  kResDegradationDisabled = 506, ///< RES006: heavy plan, degradation off

  // --- checkpoint / resume artifacts --------------------------------------
  kCkpStaleManifest = 601,       ///< CKP001: manifest/journal pair inconsistent
  kCkpConfigMismatch = 602,      ///< CKP002: journal written under other config
  kCkpOrphanedTempFiles = 603,   ///< CKP003: stale atomic-write staging files
  kCkpAbandonedTrials = 604,     ///< CKP004: journal carries abandoned trials

  // --- admission service (verify_service) ---------------------------------
  kAdmDecisionMismatch = 701,    ///< ADM001: engine vs direct theorem disagree
  kAdmCacheIncoherent = 702,     ///< ADM002: memoized vs full decisions differ
  kAdmFingerprintUnstable = 703, ///< ADM003: fleet fingerprint varies on replay
  kAdmBandwidthOverflow = 704,   ///< ADM004: admitted bandwidth exceeds supply
  kAdmCountersInconsistent = 705,///< ADM005: engine counters self-inconsistent

  // --- mixed-criticality mode switching (verify_modeswitch) ---------------
  kMcsBudgetOrder = 801,         ///< MCS001: a task has C_hi < C_lo
  kMcsLoModeUnschedulable = 802, ///< MCS002: LO regime fails Theorem 4
  kMcsHiModeUnschedulable = 803, ///< MCS003: HI regime fails at C_hi
  kMcsTransitionUnschedulable = 804, ///< MCS004: carry-over demand overflows
  kMcsForgedModeSwitch = 805,    ///< MCS005: switch record kept LO backlog
  kMcsHysteresisThrash = 806,    ///< MCS006: LO<->HI cycling faster than window
};

/// Stable string form, e.g. kSigJobUnderAllocated -> "SIG003".
[[nodiscard]] const char* code_string(DiagCode code);

/// One-line summary of what the code means (static text, no values).
[[nodiscard]] const char* code_summary(DiagCode code);

/// Severity a code carries unless the reporter overrides it.
[[nodiscard]] Severity default_severity(DiagCode code);

/// A single finding: code + severity + human text + machine context.
struct Diagnostic {
  DiagCode code;
  Severity severity;
  std::string message;  ///< human text with the offending values
  std::string context;  ///< locator, e.g. "device 1 task 12 job 3"
};

/// Ordered collection of findings from one verification run.
class Report {
 public:
  /// Adds a finding at the code's default severity.
  void add(DiagCode code, std::string message, std::string context = "");

  /// Adds a finding with an explicit severity.
  void add(DiagCode code, Severity severity, std::string message,
           std::string context);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  [[nodiscard]] std::size_t error_count() const { return errors_; }
  [[nodiscard]] std::size_t warning_count() const { return warnings_; }

  /// True when no error-severity diagnostic was recorded.
  [[nodiscard]] bool ok() const { return errors_ == 0; }

  /// True when at least one finding with `code` is present.
  [[nodiscard]] bool has(DiagCode code) const;

  /// Appends all findings of `other`.
  void merge(const Report& other);

  /// Human-readable listing, one finding per line.
  void render_text(std::ostream& os) const;

  /// Machine-readable JSON object (stable schema, see DESIGN.md).
  void render_json(std::ostream& os) const;

 private:
  std::vector<Diagnostic> diags_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

}  // namespace ioguard::analysis
