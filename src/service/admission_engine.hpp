// AdmissionEngine: the long-lived admission-control service core (ISSUE-9).
//
// The engine owns the fleet model -- tenants -> VMs -> task sets -> servers
// -- on top of one device's Time Slot Table, and answers AdmissionRequests
// with the two-layer Sec. IV analysis (Theorem 2 globally, Theorem 4 per
// VM). Two evaluation modes share one code path:
//
//  * memoize = true (production): per-VM Theorem 4 verdicts, Theorem 2
//    verdicts and server syntheses are cached under fnv1a64 fingerprints of
//    their canonical inputs, so tenant churn only re-analyzes the VMs whose
//    supply or demand actually changed.
//  * memoize = false (reference): every verdict is recomputed from scratch
//    on every request.
//
// The contract -- enforced by tests and analysis::verify_service (ADM002)
// -- is that both modes produce byte-identical AdmissionDecision
// canonical_string()s for any request sequence; only EngineCounters may
// differ. Server assignment is engine *state*, not cache: a VM keeps the
// server chosen at admit/update time in both modes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "sched/sbf.hpp"
#include "sched/server_design.hpp"
#include "sched/slot_table.hpp"
#include "service/admission_api.hpp"

namespace ioguard::telemetry {
class MetricsRegistry;
}

namespace ioguard::service {

struct AdmissionEngineConfig {
  /// Incremental re-analysis via fingerprint-keyed verdict caches. Disable
  /// to force the full re-analysis reference mode.
  bool memoize = true;
  /// Synthesis search space for requests without an explicit server.
  sched::ServerDesignConfig server_design;
  /// HI-mode server inflation used for dual-criticality task sets
  /// (sched/mcs_admission.hpp); must match the hypervisor's
  /// ModeSwitchConfig::hi_budget_factor. Irrelevant to (and unread by)
  /// single-criticality fleets, whose decisions stay byte-identical.
  double mcs_hi_budget_factor = 1.5;
};

class AdmissionEngine {
 public:
  explicit AdmissionEngine(sched::TimeSlotTable table,
                           AdmissionEngineConfig config = {});

  /// Answers one request. Status errors are reserved for requests the
  /// caller got wrong (unknown VM, malformed task set, Theta > Pi);
  /// analytic rejections come back as OK decisions with admitted == false
  /// and the fleet left untouched.
  [[nodiscard]] StatusOr<AdmissionDecision> handle(
      const AdmissionRequest& request);

  [[nodiscard]] std::size_t fleet_size() const { return fleet_.size(); }
  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  [[nodiscard]] const sched::TableSupply& table_supply() const {
    return supply_;
  }
  [[nodiscard]] const AdmissionEngineConfig& config() const { return config_; }

  /// fnv1a64 of the committed fleet's canonical bytes, one
  /// "<tenant>/<vm>|pi=<Pi>,theta=<Theta>|<task canon>\n" line per VM in
  /// fleet order, hashed piece by piece (stable identity for replay checks;
  /// also stamped into every decision).
  [[nodiscard]] std::uint64_t fleet_fingerprint() const;

  /// Publishes EngineCounters as ioguard_admission_* telemetry series.
  void export_metrics(telemetry::MetricsRegistry& registry) const;

  /// Testing/verification hook (verify_service --corrupt=stale-cache):
  /// flips every cached Theorem 4 verdict in place, simulating a cache that
  /// survived an invalidation it should not have. Memoized decisions then
  /// diverge from full re-analysis, which ADM002 must catch. No-op when
  /// memoization is off (there is no cache to go stale).
  void poison_local_cache_for_testing();

 private:
  /// One admitted VM with everything a decision reads of it that depends
  /// only on the VM: computed once when the VM is admitted or updated, so a
  /// request costs the VM it changes, not the fleet's task sets.
  struct VmEntry {
    VmEntry(workload::TaskSet tasks, std::string task_canon,
            sched::ServerParams server, double mcs_hi_budget_factor);

    workload::TaskSet tasks;
    sched::ServerParams server;
    std::string task_canon;    ///< task_set_canonical_string(tasks)
    std::string server_canon;  ///< "pi=<Pi>,theta=<Theta>"
    std::uint64_t local_key = 0;  ///< Theorem 4 cache key (local_cache_)
    double utilization = 0.0;     ///< tasks.utilization()
    bool mixed = false;           ///< tasks.mixed_criticality()
  };
  /// Fleet keyed (tenant, vm): std::map gives the canonical iteration order
  /// every decision, fingerprint and global-layer key is built in.
  using FleetKey = std::pair<std::string, std::string>;
  using Fleet = std::map<FleetKey, VmEntry>;

  [[nodiscard]] Status validate(const AdmissionRequest& request) const;
  /// The two-layer verdict over the fleet as it stands: admit and update
  /// put their entry in place first and restore the old state on rejection.
  [[nodiscard]] AdmissionDecision evaluate(const AdmissionRequest& request);

  /// L-level verdict for one VM, through the local cache when memoizing:
  /// Theorem 4 for single-criticality sets, the three-regime dual-
  /// criticality check (sched::mcs_admission_check) for mixed sets, folded
  /// to the first failing regime's result.
  [[nodiscard]] sched::AdmissionResult local_verdict(const VmEntry& entry);
  /// Theorem 2 over the active servers, through the global cache under
  /// `key` (fnv1a64 of "pi=<Pi>,theta=<Theta>;" per active server).
  /// `hi_regime` routes the hit/miss accounting to the HI counters (the
  /// all-switched re-check of a mixed fleet), keeping ADM005's one-LO-
  /// verdict-per-decision invariant intact.
  [[nodiscard]] sched::AdmissionResult global_verdict(
      const std::vector<sched::ServerParams>& active, std::uint64_t key,
      bool hi_regime = false);
  /// Synthesis through the synthesis cache; nullopt = no feasible server.
  [[nodiscard]] std::optional<sched::ServerParams> synthesized_server(
      const workload::TaskSet& tasks, const std::string& task_canon);

  sched::TimeSlotTable table_;
  sched::TableSupply supply_;
  AdmissionEngineConfig config_;
  Fleet fleet_;
  EngineCounters counters_;

  // Verdict caches (memoize mode). Keys are fnv1a64 fingerprints of the
  // canonical inputs; std::map for deterministic iteration (LNT003).
  std::map<std::uint64_t, sched::AdmissionResult> local_cache_;
  std::map<std::uint64_t, sched::AdmissionResult> global_cache_;
  std::map<std::uint64_t, std::optional<sched::ServerParams>> synth_cache_;
};

/// Canonical task-set string for fingerprinting: one `id:T:C:D` record per
/// task in set order; HI-criticality tasks append `:HI:<C_hi>` (LO-only
/// sets keep their exact pre-MCS bytes). Exposed for verify_service's
/// replay checks.
[[nodiscard]] std::string task_set_canonical_string(
    const workload::TaskSet& tasks);

}  // namespace ioguard::service
