#include "service/admission_api.hpp"

#include "common/appender.hpp"

namespace ioguard::service {

const char* to_string(RequestOp op) {
  switch (op) {
    case RequestOp::kAdmit: return "admit";
    case RequestOp::kUpdate: return "update";
    case RequestOp::kEvict: return "evict";
    case RequestOp::kEvictTenant: return "evict_tenant";
    case RequestOp::kQuery: return "query";
  }
  return "?";
}

std::string AdmissionDecision::canonical_string() const {
  std::string out;
  Appender a(&out);
  const auto result = [&a](const sched::AdmissionResult& r) {
    a.put("schedulable=").put_int(r.schedulable ? 1 : 0)
        .put("|checked_until=").put_int(r.checked_until)
        .put("|violation=");
    if (r.violation_t) {
      a.put_int(*r.violation_t);
    } else {
      a.put_char('-');
    }
  };
  a.put("decision|op=").put(to_string(op)).put("|tenant=").put(tenant)
      .put("|vm=").put(vm).put("|applied=").put_int(applied ? 1 : 0)
      .put("|admitted=").put_int(admitted ? 1 : 0).put("|reason=").put(reason)
      .put_char('\n');
  a.put("global|");
  result(global);
  a.put_char('\n');
  for (const auto& v : per_vm) {
    a.put("vm|").put(v.tenant).put_char('/').put(v.vm)
        .put("|pi=").put_int(v.server.pi)
        .put("|theta=").put_int(v.server.theta)
        .put("|tasks=").put_int(v.task_count)
        .put("|util=").put_fixed(v.utilization, 6).put_char('|');
    result(v.local);
    a.put_char('\n');
  }
  a.put("fleet|vms=").put_int(fleet_vms)
      .put("|allocated_bw=").put_fixed(allocated_bandwidth, 6)
      .put("|supply_bw=").put_fixed(supply_bandwidth, 6)
      .put("|fingerprint=0x").put_hex(fleet_fingerprint).put_char('\n');
  return out;
}

}  // namespace ioguard::service
