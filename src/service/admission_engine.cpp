#include "service/admission_engine.hpp"

#include <utility>

#include "common/appender.hpp"
#include "common/check.hpp"
#include "common/checksum.hpp"
#include "sched/admission.hpp"
#include "sched/mcs_admission.hpp"
#include "telemetry/metrics.hpp"

namespace ioguard::service {

namespace {

/// "pi=<Pi>,theta=<Theta>": a server's bytes in every cache key and in the
/// fleet fingerprint.
void put_server(Appender& a, const sched::ServerParams& s) {
  a.put("pi=").put_int(s.pi).put(",theta=").put_int(s.theta);
}

/// What is wrong with one task of an admit/update, or nullptr; the message
/// is formatted only for a task that fails.
const char* task_problem(const workload::IoTaskSpec& t) {
  if (t.period == 0) return "period must be > 0";
  if (t.wcet == 0) return "wcet must be > 0";
  if (t.deadline == 0 || t.deadline > t.period)
    return "deadline must be in (0, period] (slots)";
  if (t.wcet > t.deadline) return "wcet must be <= deadline";
  if (t.wcet_hi != 0 && t.wcet_hi < t.wcet)
    return "HI budget wcet_hi must dominate wcet (C_lo <= C_hi)";
  if (t.wcet_hi > t.deadline) return "HI budget must be <= deadline";
  return nullptr;
}

}  // namespace

std::string task_set_canonical_string(const workload::TaskSet& tasks) {
  std::string out;
  Appender a(&out);
  for (const auto& t : tasks.tasks()) {
    a.put_int(t.id.value).put_char(':').put_int(t.period).put_char(':')
        .put_int(t.wcet).put_char(':').put_int(t.deadline);
    // Dual-criticality suffix only for HI tasks: a LO task's wcet_hi is
    // analysis-irrelevant (LO work is shed in HI mode), and LO-only sets
    // must keep their exact pre-MCS canonical bytes.
    if (t.hi_criticality()) a.put(":HI:").put_int(t.effective_wcet_hi());
    a.put_char(';');
  }
  return out;
}

AdmissionEngine::VmEntry::VmEntry(workload::TaskSet tasks_in,
                                  std::string task_canon_in,
                                  sched::ServerParams server_in,
                                  double mcs_hi_budget_factor)
    : tasks(std::move(tasks_in)),
      server(server_in),
      task_canon(std::move(task_canon_in)),
      utilization(tasks.utilization()),
      mixed(tasks.mixed_criticality()) {
  Appender a(&server_canon);
  put_server(a, server);
  // Theorem 4 key: "<server canon>|<task canon>". Mixed entries fold the
  // inflation factor in (the verdict depends on it); single-criticality
  // keys keep their pre-MCS bytes.
  local_key = fnv1a64_update(
      fnv1a64_update(fnv1a64_update(fnv1a64_init(), server_canon), "|"),
      task_canon);
  if (mixed)
    local_key = fnv1a64_update(
        local_key, "|mcs_factor=" + std::to_string(mcs_hi_budget_factor));
}

AdmissionEngine::AdmissionEngine(sched::TimeSlotTable table,
                                 AdmissionEngineConfig config)
    : table_(std::move(table)), supply_(table_), config_(std::move(config)) {
  IOGUARD_CHECK_MSG(!config_.server_design.pi_menu.empty(),
                    "AdmissionEngine needs a non-empty Pi menu");
}

Status AdmissionEngine::validate(const AdmissionRequest& request) const {
  const bool needs_tenant = request.op != RequestOp::kQuery;
  const bool needs_vm = request.op == RequestOp::kAdmit ||
                        request.op == RequestOp::kUpdate ||
                        request.op == RequestOp::kEvict;
  if (needs_tenant && request.tenant.empty())
    return InvalidArgumentError("request needs a non-empty tenant");
  if (needs_vm && request.vm.empty())
    return InvalidArgumentError("request needs a non-empty vm");

  if (request.op == RequestOp::kAdmit || request.op == RequestOp::kUpdate) {
    if (request.tasks.empty())
      return InvalidArgumentError("admit/update needs a non-empty task set");
    for (const auto& t : request.tasks.tasks()) {
      if (const char* problem = task_problem(t))
        return InvalidArgumentError("task " + std::to_string(t.id.value) +
                                    ": " + problem);
    }
    if (request.server) {
      if (request.server->pi == 0)
        return InvalidArgumentError("server period Pi must be > 0");
      if (request.server->theta > request.server->pi)
        return InvalidArgumentError("server budget Theta must be <= Pi");
    }
  }
  return OkStatus();
}

StatusOr<AdmissionDecision> AdmissionEngine::handle(
    const AdmissionRequest& request) {
  ++counters_.requests;
  IOGUARD_RETURN_IF_ERROR(validate(request));

  const FleetKey key{request.tenant, request.vm};
  AdmissionDecision decision;

  switch (request.op) {
    case RequestOp::kAdmit:
    case RequestOp::kUpdate: {
      auto it = fleet_.find(key);
      const bool exists = it != fleet_.end();
      if (request.op == RequestOp::kAdmit && exists)
        return FailedPreconditionError("vm already admitted: " +
                                       request.tenant + "/" + request.vm);
      if (request.op == RequestOp::kUpdate && !exists)
        return NotFoundError("vm not in fleet: " + request.tenant + "/" +
                             request.vm);

      std::string task_canon = task_set_canonical_string(request.tasks);
      sched::ServerParams server;
      if (request.server) {
        server = *request.server;
      } else {
        const auto designed = synthesized_server(request.tasks, task_canon);
        if (!designed) {
          // Analytic dead end, not a caller error: no server in the search
          // space carries this task set. Report the unchanged fleet.
          decision = evaluate(request);
          decision.admitted = false;
          decision.applied = false;
          decision.reason = "no server over the Pi menu passes Theorem 4 for " +
                            request.tenant + "/" + request.vm;
          ++counters_.rejected;
          break;
        }
        server = *designed;
      }

      // Evaluate with the new entry in place; a rejection restores the
      // previous entry, or its absence.
      VmEntry entry(request.tasks, std::move(task_canon), server,
                    config_.mcs_hi_budget_factor);
      std::optional<VmEntry> previous;
      if (exists) {
        previous = std::exchange(it->second, std::move(entry));
      } else {
        it = fleet_.emplace(key, std::move(entry)).first;
      }
      decision = evaluate(request);
      decision.applied = decision.admitted;
      if (decision.applied) {
        ++counters_.applied;
      } else {
        if (previous) {
          it->second = std::move(*previous);
        } else {
          fleet_.erase(it);
        }
        ++counters_.rejected;
      }
      break;
    }
    case RequestOp::kEvict: {
      const auto it = fleet_.find(key);
      if (it == fleet_.end())
        return NotFoundError("vm not in fleet: " + request.tenant + "/" +
                             request.vm);
      fleet_.erase(it);
      decision = evaluate(request);
      decision.applied = true;
      ++counters_.applied;
      break;
    }
    case RequestOp::kEvictTenant: {
      bool any = false;
      for (auto it = fleet_.begin(); it != fleet_.end();) {
        if (it->first.first == request.tenant) {
          it = fleet_.erase(it);
          any = true;
        } else {
          ++it;
        }
      }
      if (!any)
        return NotFoundError("tenant has no admitted vms: " + request.tenant);
      decision = evaluate(request);
      decision.applied = true;
      ++counters_.applied;
      break;
    }
    case RequestOp::kQuery: {
      decision = evaluate(request);
      decision.applied = false;
      break;
    }
  }

  decision.fleet_vms = fleet_.size();
  decision.fleet_fingerprint = fleet_fingerprint();
  return decision;
}

AdmissionDecision AdmissionEngine::evaluate(const AdmissionRequest& request) {
  AdmissionDecision d;
  d.op = request.op;
  d.tenant = request.tenant;
  d.vm = request.vm;
  d.supply_bandwidth = supply_.bandwidth();

  // A mixed-criticality fleet must also survive the all-switched worst
  // case: block propagation can put every VM in HI mode simultaneously, so
  // Theorem 2 is re-checked over the inflated servers too.
  bool fleet_mixed = false;
  for (const auto& [fk, entry] : fleet_)
    if (entry.mixed) fleet_mixed = true;

  std::vector<sched::ServerParams> active;
  std::vector<sched::ServerParams> active_hi;
  active.reserve(fleet_.size());
  d.per_vm.reserve(fleet_.size());
  std::uint64_t global_key = fnv1a64_init();
  std::string hi_canon;
  Appender hi(&hi_canon);
  bool all_local = true;
  std::string local_reason;
  for (const auto& [fk, entry] : fleet_) {
    VmVerdict v;
    v.tenant = fk.first;
    v.vm = fk.second;
    v.server = entry.server;
    v.task_count = entry.tasks.size();
    v.utilization = entry.utilization;
    v.local = local_verdict(entry);
    if (!v.local.schedulable && all_local) {
      all_local = false;
      local_reason =
          "L-level (Theorem 4) rejected for " + fk.first + "/" + fk.second;
    }
    if (entry.server.theta > 0) {
      active.push_back(entry.server);
      global_key = fnv1a64_update(
          fnv1a64_update(global_key, entry.server_canon), ";");
      if (fleet_mixed) {
        active_hi.push_back(sched::inflate_server(
            entry.server, config_.mcs_hi_budget_factor));
        put_server(hi, active_hi.back());
        hi.put_char(';');
      }
      d.allocated_bandwidth += entry.server.bandwidth();
    }
    d.per_vm.push_back(std::move(v));
  }
  d.global = global_verdict(active, global_key);
  bool global_ok = d.global.schedulable;
  std::string global_reason = "G-level (Theorem 2) rejected";
  if (global_ok && fleet_mixed) {
    const auto hi_global =
        global_verdict(active_hi, fnv1a64(hi_canon), /*hi_regime=*/true);
    if (!hi_global.schedulable) {
      d.global = hi_global;
      global_ok = false;
      global_reason = "G-level (Theorem 2 at HI budgets) rejected";
    }
  }
  d.admitted = global_ok && all_local;
  if (!d.admitted) d.reason = all_local ? global_reason : local_reason;
  return d;
}

sched::AdmissionResult AdmissionEngine::local_verdict(const VmEntry& entry) {
  const auto compute = [&]() -> sched::AdmissionResult {
    if (!entry.mixed) return theorem4_check(entry.server, entry.tasks);
    // Dual-criticality sets answer the three-regime question; the fold
    // keeps one AdmissionResult on the decision surface: the LO regime's
    // when all pass, the first failing regime's otherwise.
    const auto mcs = sched::mcs_admission_check(
        entry.server, entry.tasks, config_.mcs_hi_budget_factor);
    if (mcs.schedulable || !mcs.lo) return mcs.lo;
    if (!mcs.hi) return mcs.hi;
    return mcs.transition;
  };
  if (!config_.memoize) {
    ++counters_.local_misses;
    return compute();
  }
  const std::uint64_t key = entry.local_key;
  if (const auto it = local_cache_.find(key); it != local_cache_.end()) {
    ++counters_.local_hits;
    return it->second;
  }
  ++counters_.local_misses;
  const auto verdict = compute();
  local_cache_.emplace(key, verdict);
  return verdict;
}

sched::AdmissionResult AdmissionEngine::global_verdict(
    const std::vector<sched::ServerParams>& active, std::uint64_t key,
    bool hi_regime) {
  // HI-regime re-checks are accounted separately so the ADM005 invariant
  // (one LO global verdict per decision) survives mixed fleets.
  auto& hits = hi_regime ? counters_.hi_global_hits : counters_.global_hits;
  auto& misses =
      hi_regime ? counters_.hi_global_misses : counters_.global_misses;
  if (!config_.memoize) {
    ++misses;
    return theorem2_check(supply_, active);
  }
  if (const auto it = global_cache_.find(key); it != global_cache_.end()) {
    ++hits;
    return it->second;
  }
  ++misses;
  const auto verdict = theorem2_check(supply_, active);
  global_cache_.emplace(key, verdict);
  return verdict;
}

std::optional<sched::ServerParams> AdmissionEngine::synthesized_server(
    const workload::TaskSet& tasks, const std::string& task_canon) {
  const auto compute = [&]() -> std::optional<sched::ServerParams> {
    const auto designed = sched::synthesize_server(tasks, config_.server_design);
    if (!designed.ok()) return std::nullopt;
    return *designed;
  };
  if (!config_.memoize) {
    ++counters_.synth_misses;
    return compute();
  }
  const auto key = fnv1a64(task_canon);
  if (const auto it = synth_cache_.find(key); it != synth_cache_.end()) {
    ++counters_.synth_hits;
    return it->second;
  }
  ++counters_.synth_misses;
  const auto designed = compute();
  synth_cache_.emplace(key, designed);
  return designed;
}

std::uint64_t AdmissionEngine::fleet_fingerprint() const {
  std::uint64_t h = fnv1a64_init();
  for (const auto& [fk, entry] : fleet_) {
    h = fnv1a64_update(h, fk.first);
    h = fnv1a64_update(h, "/");
    h = fnv1a64_update(h, fk.second);
    h = fnv1a64_update(h, "|");
    h = fnv1a64_update(h, entry.server_canon);
    h = fnv1a64_update(h, "|");
    h = fnv1a64_update(h, entry.task_canon);
    h = fnv1a64_update(h, "\n");
  }
  return h;
}

void AdmissionEngine::export_metrics(
    telemetry::MetricsRegistry& registry) const {
  registry.counter("ioguard_admission_requests_total").inc(counters_.requests);
  registry.counter("ioguard_admission_applied_total").inc(counters_.applied);
  registry.counter("ioguard_admission_rejected_total").inc(counters_.rejected);
  const auto cache = [&](const char* name, std::uint64_t hits,
                         std::uint64_t misses) {
    registry.counter("ioguard_admission_cache_hits_total", {{"cache", name}})
        .inc(hits);
    registry.counter("ioguard_admission_cache_misses_total", {{"cache", name}})
        .inc(misses);
  };
  cache("local", counters_.local_hits, counters_.local_misses);
  cache("global", counters_.global_hits, counters_.global_misses);
  cache("global_hi", counters_.hi_global_hits, counters_.hi_global_misses);
  cache("synthesis", counters_.synth_hits, counters_.synth_misses);
  registry.counter("ioguard_admission_vms_reanalyzed_total")
      .inc(counters_.vms_reanalyzed());
  registry.gauge("ioguard_admission_fleet_vms")
      .set(static_cast<double>(fleet_.size()));
}

void AdmissionEngine::poison_local_cache_for_testing() {
  for (auto& [key, verdict] : local_cache_)
    verdict.schedulable = !verdict.schedulable;
}

}  // namespace ioguard::service
