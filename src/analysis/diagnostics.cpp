#include "analysis/diagnostics.hpp"

#include <ostream>
#include <string>

#include "common/appender.hpp"
#include "common/check.hpp"

namespace ioguard::analysis {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* code_string(DiagCode code) {
  switch (code) {
    case DiagCode::kSigFreeCountMismatch: return "SIG001";
    case DiagCode::kSigUnknownOccupant: return "SIG002";
    case DiagCode::kSigJobUnderAllocated: return "SIG003";
    case DiagCode::kSigTaskSlotSurplus: return "SIG004";
    case DiagCode::kSigSlotOutsideWindow: return "SIG005";
    case DiagCode::kSigPeriodNotDividingH: return "SIG006";
    case DiagCode::kSigBadPredefinedTask: return "SIG007";
    case DiagCode::kSupNonMonotone: return "SUP001";
    case DiagCode::kSupSuperadditivity: return "SUP002";
    case DiagCode::kSupPeriodicExtension: return "SUP003";
    case DiagCode::kSupZeroSlack: return "SUP004";
    case DiagCode::kSupTheoremDisagreement: return "SUP005";
    case DiagCode::kSupExceedsWindow: return "SUP006";
    case DiagCode::kSupCheckSkipped: return "SUP007";
    case DiagCode::kLvlBadServerParams: return "LVL001";
    case DiagCode::kLvlDeadlineExceedsPeriod: return "LVL002";
    case DiagCode::kLvlBandwidthDeficit: return "LVL003";
    case DiagCode::kLvlTheoremDisagreement: return "LVL004";
    case DiagCode::kLvlServerCountMismatch: return "LVL005";
    case DiagCode::kLvlBadTaskParams: return "LVL006";
    case DiagCode::kLvlCheckSkipped: return "LVL007";
    case DiagCode::kCfgBadNocDims: return "CFG001";
    case DiagCode::kCfgVmPlacementOverflow: return "CFG002";
    case DiagCode::kCfgUnknownDevice: return "CFG003";
    case DiagCode::kCfgVmOutOfRange: return "CFG004";
    case DiagCode::kCfgBadFraction: return "CFG005";
    case DiagCode::kCfgDegenerateExperiment: return "CFG006";
    case DiagCode::kResRateOutOfRange: return "RES001";
    case DiagCode::kResWatchdogZero: return "RES002";
    case DiagCode::kResBackoffOverflow: return "RES003";
    case DiagCode::kResRetryBudgetExcessive: return "RES004";
    case DiagCode::kResWatchdogIneffective: return "RES005";
    case DiagCode::kResDegradationDisabled: return "RES006";
    case DiagCode::kCkpStaleManifest: return "CKP001";
    case DiagCode::kCkpConfigMismatch: return "CKP002";
    case DiagCode::kCkpOrphanedTempFiles: return "CKP003";
    case DiagCode::kCkpAbandonedTrials: return "CKP004";
    case DiagCode::kAdmDecisionMismatch: return "ADM001";
    case DiagCode::kAdmCacheIncoherent: return "ADM002";
    case DiagCode::kAdmFingerprintUnstable: return "ADM003";
    case DiagCode::kAdmBandwidthOverflow: return "ADM004";
    case DiagCode::kAdmCountersInconsistent: return "ADM005";
    case DiagCode::kMcsBudgetOrder: return "MCS001";
    case DiagCode::kMcsLoModeUnschedulable: return "MCS002";
    case DiagCode::kMcsHiModeUnschedulable: return "MCS003";
    case DiagCode::kMcsTransitionUnschedulable: return "MCS004";
    case DiagCode::kMcsForgedModeSwitch: return "MCS005";
    case DiagCode::kMcsHysteresisThrash: return "MCS006";
  }
  return "UNK000";
}

const char* code_summary(DiagCode code) {
  switch (code) {
    case DiagCode::kSigFreeCountMismatch:
      return "free-slot count F inconsistent with table contents or demand";
    case DiagCode::kSigUnknownOccupant:
      return "slot reserved for a task outside the pre-defined set";
    case DiagCode::kSigJobUnderAllocated:
      return "a pre-defined job receives fewer than C slots by its deadline";
    case DiagCode::kSigTaskSlotSurplus:
      return "a task owns more slots per hyper-period than C*H/T";
    case DiagCode::kSigSlotOutsideWindow:
      return "a reserved slot lies outside every job window of its task";
    case DiagCode::kSigPeriodNotDividingH:
      return "a pre-defined task period does not divide the hyper-period";
    case DiagCode::kSigBadPredefinedTask:
      return "pre-defined task has invalid (T, C, D, offset) parameters";
    case DiagCode::kSupNonMonotone:
      return "sbf(sigma, t) decreases with t";
    case DiagCode::kSupSuperadditivity:
      return "sbf(sigma, a) + sbf(sigma, b) exceeds sbf(sigma, a+b)";
    case DiagCode::kSupPeriodicExtension:
      return "sbf(t+H) != sbf(t) + F, violating Eq. (2)";
    case DiagCode::kSupZeroSlack:
      return "slack c = F/H - sum(Theta/Pi) is not positive; Theorem 2 void";
    case DiagCode::kSupTheoremDisagreement:
      return "Theorem 1 (exhaustive) and Theorem 2 disagree";
    case DiagCode::kSupExceedsWindow:
      return "sbf(sigma, t) exceeds the window length t";
    case DiagCode::kSupCheckSkipped:
      return "supply agreement check skipped (check bound too large)";
    case DiagCode::kLvlBadServerParams:
      return "server has Pi == 0 or Theta > Pi";
    case DiagCode::kLvlDeadlineExceedsPeriod:
      return "VM task has deadline > period (analysis assumes D <= T)";
    case DiagCode::kLvlBandwidthDeficit:
      return "server bandwidth Theta/Pi below the VM's utilization";
    case DiagCode::kLvlTheoremDisagreement:
      return "Theorem 3 (exhaustive) and Theorem 4 disagree";
    case DiagCode::kLvlServerCountMismatch:
      return "server list and VM task-set list differ in length";
    case DiagCode::kLvlBadTaskParams:
      return "VM task has zero period, WCET, or deadline";
    case DiagCode::kLvlCheckSkipped:
      return "L-level agreement check skipped (check bound too large)";
    case DiagCode::kCfgBadNocDims:
      return "NoC mesh cannot host the device floorplan";
    case DiagCode::kCfgVmPlacementOverflow:
      return "more VMs than the mesh floorplan can place";
    case DiagCode::kCfgUnknownDevice:
      return "task references a device id absent from the platform";
    case DiagCode::kCfgVmOutOfRange:
      return "task assigned to a VM index >= the configured VM count";
    case DiagCode::kCfgBadFraction:
      return "utilization or preload fraction outside its valid range";
    case DiagCode::kCfgDegenerateExperiment:
      return "experiment would run zero trials or zero jobs per task";
    case DiagCode::kResRateOutOfRange:
      return "fault rate outside the [0, 1] probability range";
    case DiagCode::kResWatchdogZero:
      return "watchdog timeout of zero slots can never bound a stall";
    case DiagCode::kResBackoffOverflow:
      return "final retry backoff (base << (max_retries-1)) overflows";
    case DiagCode::kResRetryBudgetExcessive:
      return "max_retries exceeds the supported cap of 16";
    case DiagCode::kResWatchdogIneffective:
      return "planned stalls end before the watchdog can fire";
    case DiagCode::kResDegradationDisabled:
      return "high-rate fault plan with graceful degradation disabled";
    case DiagCode::kCkpStaleManifest:
      return "checkpoint manifest missing, unparsable, or journal-less";
    case DiagCode::kCkpConfigMismatch:
      return "checkpoint journal written under a different configuration";
    case DiagCode::kCkpOrphanedTempFiles:
      return "stale atomic-write staging files next to the checkpoint";
    case DiagCode::kCkpAbandonedTrials:
      return "checkpoint journal carries abandoned (excluded) trials";
    case DiagCode::kAdmDecisionMismatch:
      return "engine admission verdict disagrees with the direct theorems";
    case DiagCode::kAdmCacheIncoherent:
      return "memoized and full re-analysis decisions differ byte-wise";
    case DiagCode::kAdmFingerprintUnstable:
      return "fleet fingerprint differs between identical request replays";
    case DiagCode::kAdmBandwidthOverflow:
      return "admitted server bandwidth exceeds the table's supply F/H";
    case DiagCode::kAdmCountersInconsistent:
      return "engine cache/requests counters violate their invariants";
    case DiagCode::kMcsBudgetOrder:
      return "a task's HI budget C_hi is below its LO budget C_lo";
    case DiagCode::kMcsLoModeUnschedulable:
      return "LO mode fails Theorem 4 (full task set at C_lo)";
    case DiagCode::kMcsHiModeUnschedulable:
      return "HI mode fails Theorem 4 (HI tasks at C_hi, inflated server)";
    case DiagCode::kMcsTransitionUnschedulable:
      return "mode-switch carry-over demand exceeds the HI server supply";
    case DiagCode::kMcsForgedModeSwitch:
      return "a LO->HI record kept LO backlog (lo_pending > jobs_shed)";
    case DiagCode::kMcsHysteresisThrash:
      return "LO<->HI transitions cycle faster than the hysteresis window";
  }
  return "unknown diagnostic";
}

Severity default_severity(DiagCode code) {
  switch (code) {
    case DiagCode::kSupCheckSkipped:
    case DiagCode::kLvlCheckSkipped:
      return Severity::kInfo;
    case DiagCode::kResWatchdogIneffective:
    case DiagCode::kResDegradationDisabled:
    case DiagCode::kCkpOrphanedTempFiles:
    case DiagCode::kCkpAbandonedTrials:
    case DiagCode::kMcsHysteresisThrash:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

void Report::add(DiagCode code, std::string message, std::string context) {
  add(code, default_severity(code), std::move(message), std::move(context));
}

void Report::add(DiagCode code, Severity severity, std::string message,
                 std::string context) {
  if (severity == Severity::kError) ++errors_;
  if (severity == Severity::kWarning) ++warnings_;
  diags_.push_back(Diagnostic{code, severity, std::move(message),
                              std::move(context)});
}

bool Report::has(DiagCode code) const {
  for (const auto& d : diags_)
    if (d.code == code) return true;
  return false;
}

void Report::merge(const Report& other) {
  for (const auto& d : other.diags_)
    add(d.code, d.severity, d.message, d.context);
}

void Report::render_text(std::ostream& os) const {
  for (const auto& d : diags_) {
    os << code_string(d.code) << ' ' << to_string(d.severity);
    if (!d.context.empty()) os << " [" << d.context << ']';
    os << ": " << d.message << '\n';
  }
  os << (ok() ? "OK" : "FAIL") << ": " << errors_ << " error(s), "
     << warnings_ << " warning(s), " << diags_.size() << " finding(s)\n";
}

void Report::render_json(std::ostream& os) const {
  std::string buf;
  Appender a(&buf);
  a.put("{\"ok\":").put(ok() ? "true" : "false")
      .put(",\"errors\":").put_int(errors_)
      .put(",\"warnings\":").put_int(warnings_)
      .put(",\"diagnostics\":[");
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const auto& d = diags_[i];
    if (i > 0) a.put_char(',');
    a.put("{\"code\":\"").put(code_string(d.code))
        .put("\",\"severity\":\"").put(to_string(d.severity))
        .put("\",\"summary\":\"").put_json_escaped(code_summary(d.code))
        .put("\",\"message\":\"").put_json_escaped(d.message)
        .put("\",\"context\":\"").put_json_escaped(d.context)
        .put("\"}")
        .write_to(os);
  }
  a.put("]}\n").write_to(os, 0);
}

}  // namespace ioguard::analysis
