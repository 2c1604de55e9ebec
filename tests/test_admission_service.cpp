// Tests for the admission-control service (ISSUE-9): golden decisions over
// the redesigned API, cache invalidation on churn, the memoized-vs-full
// byte-identity contract, the JSON-lines wire codec (malformed input is a
// diagnostic, never a crash), and determinism across worker widths.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "golden.hpp"
#include "sched/slot_table.hpp"
#include "service/admission_engine.hpp"
#include "service/admission_json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "workload/generator.hpp"
#include "workload/task.hpp"

namespace ioguard::service {
namespace {

workload::IoTaskSpec task(std::uint32_t id, Slot t, Slot c, Slot d) {
  workload::IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.name = "t";
  s.name += std::to_string(id);
  s.period = t;
  s.wcet = c;
  s.deadline = d;
  s.payload_bytes = 8;
  return s;
}

/// A 20-slot table with slots 0-3 reserved: 0.8 free bandwidth.
sched::TimeSlotTable small_table() {
  sched::TimeSlotTable table(20);
  for (Slot s = 0; s < 4; ++s) table.reserve(s, TaskId{99});
  return table;
}

AdmissionRequest admit(const std::string& tenant, const std::string& vm,
                       const workload::TaskSet& tasks) {
  AdmissionRequest r;
  r.op = RequestOp::kAdmit;
  r.tenant = tenant;
  r.vm = vm;
  r.tasks = tasks;
  return r;
}

// ------------------------------------------------------------ decisions

TEST(AdmissionEngine, GoldenAdmitDecision) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  AdmissionRequest req = admit("t0", "vm0", ts);
  req.server = sched::ServerParams{10, 2};

  const auto decision = engine.handle(req);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_TRUE(decision->applied);
  EXPECT_TRUE(decision->admitted);

  // The canonical string is the byte-identity contract's unit: pin it.
  const auto replay = AdmissionEngine(small_table(), AdmissionEngineConfig{})
                          .handle(req);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(decision->canonical_string(), replay->canonical_string());
  EXPECT_NE(decision->canonical_string().find(
                "decision|op=admit|tenant=t0|vm=vm0|applied=1|admitted=1"),
            std::string::npos)
      << decision->canonical_string();
  EXPECT_NE(decision->canonical_string().find("vm|t0/vm0|pi=10|theta=2"),
            std::string::npos)
      << decision->canonical_string();
}

TEST(AdmissionEngine, CallerErrorsAreStatusNotDecisions) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));

  // Evicting a VM that was never admitted: NOT_FOUND, exit-2 class.
  AdmissionRequest evict;
  evict.op = RequestOp::kEvict;
  evict.tenant = "t0";
  evict.vm = "ghost";
  const auto missing = engine.handle(evict);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(exit_code(missing.status()), 2);

  // Empty task set on admit (TaskSet::add enforces the per-task invariants
  // at construction, so emptiness is the malformed shape reachable through
  // the C++ facade): INVALID_ARGUMENT.
  const auto malformed = engine.handle(admit("t0", "vm0", {}));
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);

  // Theta > Pi on an explicit server: INVALID_ARGUMENT.
  AdmissionRequest req = admit("t0", "vm0", ts);
  req.server = sched::ServerParams{10, 11};
  EXPECT_EQ(engine.handle(req).status().code(), StatusCode::kInvalidArgument);

  // Double admit: FAILED_PRECONDITION (update is the mutation op).
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", ts)).ok());
  EXPECT_EQ(engine.handle(admit("t0", "vm0", ts)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.fleet_size(), 1u);
}

TEST(AdmissionEngine, AnalyticRejectionLeavesFleetUntouched) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet light;
  light.add(task(1, 100, 2, 100));
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", light)).ok());
  const std::uint64_t before = engine.fleet_fingerprint();

  // A set the 0.8-bandwidth table can never host: rejection, not error.
  workload::TaskSet heavy;
  heavy.add(task(2, 10, 9, 10));
  const auto rejected = engine.handle(admit("t0", "vm1", heavy));
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_FALSE(rejected->applied);
  EXPECT_FALSE(rejected->admitted);
  EXPECT_FALSE(rejected->reason.empty());
  EXPECT_EQ(engine.fleet_size(), 1u);
  EXPECT_EQ(engine.fleet_fingerprint(), before);
  EXPECT_EQ(engine.counters().rejected, 1u);

  // A rejected update puts back the entry it replaced: afterwards the engine
  // answers exactly as a twin that never saw the update, in both modes.
  workload::TaskSet other;
  other.add(task(3, 200, 10, 200));
  for (const bool memoize : {true, false}) {
    AdmissionEngineConfig cfg;
    cfg.memoize = memoize;
    AdmissionEngine updated(small_table(), cfg);
    AdmissionEngine twin(small_table(), cfg);
    for (AdmissionEngine* e : {&updated, &twin}) {
      ASSERT_TRUE(e->handle(admit("t0", "vm0", light)).ok());
      ASSERT_TRUE(e->handle(admit("t1", "vm1", other)).ok());
    }
    // One update Theorem 2 turns down, one Theorem 4 turns down.
    for (const auto& [tasks, server, level] :
         {std::tuple{heavy, sched::ServerParams{10, 10}, "G-level"},
          std::tuple{light, sched::ServerParams{100, 1}, "L-level"}}) {
      AdmissionRequest update = admit("t0", "vm0", tasks);
      update.op = RequestOp::kUpdate;
      update.server = server;
      const auto refused = updated.handle(update);
      ASSERT_TRUE(refused.ok()) << refused.status();
      EXPECT_FALSE(refused->applied);
      EXPECT_EQ(refused->reason.rfind(level, 0), 0u) << refused->reason;

      EXPECT_EQ(updated.fleet_size(), twin.fleet_size());
      EXPECT_EQ(updated.fleet_fingerprint(), twin.fleet_fingerprint());
      AdmissionRequest query;
      query.op = RequestOp::kQuery;
      const auto next = updated.handle(query);
      const auto expected = twin.handle(query);
      ASSERT_TRUE(next.ok());
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(next->canonical_string(), expected->canonical_string())
          << "memoize=" << memoize;
      EXPECT_EQ(encode_decision(*next), encode_decision(*expected));
    }
  }
}

// ------------------------------------------------------- cache behaviour

TEST(AdmissionEngine, ChurnReusesAndInvalidatesCaches) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet a;
  a.add(task(1, 100, 5, 80));
  workload::TaskSet b;
  b.add(task(1, 100, 8, 80));  // same id, different demand -> new fingerprint

  ASSERT_TRUE(engine.handle(admit("t0", "vm0", a)).ok());
  const std::uint64_t misses_after_admit = engine.counters().local_misses;
  EXPECT_GE(misses_after_admit, 1u);

  AdmissionRequest evict;
  evict.op = RequestOp::kEvict;
  evict.tenant = "t0";
  evict.vm = "vm0";
  ASSERT_TRUE(engine.handle(evict).ok());

  // Re-admitting the same profile must be served from the cache...
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", a)).ok());
  EXPECT_EQ(engine.counters().local_misses, misses_after_admit);
  EXPECT_GE(engine.counters().local_hits, 1u);

  // ...while updating to a different profile re-analyzes (cache key moves).
  AdmissionRequest update = admit("t0", "vm0", b);
  update.op = RequestOp::kUpdate;
  ASSERT_TRUE(engine.handle(update).ok());
  EXPECT_GT(engine.counters().local_misses, misses_after_admit);
}

/// The tentpole contract, ctest-enforced: memoized and full re-analysis
/// produce byte-identical decisions over a randomized churn sequence.
TEST(AdmissionEngine, MemoizedMatchesFullReanalysisByteForByte) {
  Rng rng(11);
  std::vector<workload::TaskSet> profiles;
  for (std::uint32_t v = 0; v < 12; ++v) {
    workload::TaskSet ts;
    const auto shares = workload::uunifast(rng, 3, 0.04);
    for (std::uint32_t i = 0; i < 3; ++i) {
      const Slot period = static_cast<Slot>(rng.log_uniform(50, 500));
      const Slot deadline = period - rng.uniform_int(0, period / 8);
      Slot wcet = std::max<Slot>(
          1, static_cast<Slot>(shares[i] * static_cast<double>(period)));
      if (wcet > deadline) wcet = deadline;
      ts.add(task(v * 8 + i, period, wcet, deadline));
    }
    profiles.push_back(std::move(ts));
  }

  AdmissionEngineConfig memo_cfg;
  AdmissionEngineConfig full_cfg;
  full_cfg.memoize = false;
  AdmissionEngine memo(small_table(), memo_cfg);
  AdmissionEngine full(small_table(), full_cfg);

  std::vector<bool> in_fleet(profiles.size(), false);
  std::uint64_t state = 7;
  for (int step = 0; step < 240; ++step) {
    state += 0x9e3779b97f4a7c15ULL;
    const std::uint64_t r = splitmix64_step(state);
    const auto i = static_cast<std::size_t>(r % profiles.size());
    AdmissionRequest req;
    req.tenant = "tenant" + std::to_string(i % 3);
    req.vm = "vm" + std::to_string(i);
    if (!in_fleet[i]) {
      req.op = RequestOp::kAdmit;
      req.tasks = profiles[i];
      in_fleet[i] = true;
    } else if (((r >> 32) & 1) != 0) {
      req.op = RequestOp::kUpdate;
      req.tasks = profiles[i];
    } else {
      req.op = RequestOp::kEvict;
      in_fleet[i] = false;
    }
    const auto md = memo.handle(req);
    const auto fd = full.handle(req);
    ASSERT_EQ(md.ok(), fd.ok()) << "step " << step;
    if (!md.ok()) continue;
    ASSERT_EQ(md->canonical_string(), fd->canonical_string())
        << "decisions diverge at step " << step;
  }
  EXPECT_EQ(memo.fleet_fingerprint(), full.fleet_fingerprint());
  // Memoization must actually have fired, or the contract test is vacuous.
  EXPECT_GT(memo.counters().local_hits, 0u);
  EXPECT_EQ(full.counters().local_hits, 0u);
}

TEST(AdmissionEngine, PoisonedCacheBreaksByteIdentity) {
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  AdmissionEngine memo(small_table(), AdmissionEngineConfig{});
  AdmissionEngineConfig full_cfg;
  full_cfg.memoize = false;
  AdmissionEngine full(small_table(), full_cfg);

  ASSERT_TRUE(memo.handle(admit("t0", "vm0", ts)).ok());
  ASSERT_TRUE(full.handle(admit("t0", "vm0", ts)).ok());
  memo.poison_local_cache_for_testing();

  AdmissionRequest query;
  query.op = RequestOp::kQuery;
  const auto md = memo.handle(query);
  const auto fd = full.handle(query);
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE(fd.ok());
  EXPECT_NE(md->canonical_string(), fd->canonical_string())
      << "poisoning the cache must be observable, or ADM002 checks nothing";
}

// -------------------------------------------------------------- telemetry

TEST(AdmissionEngine, ExportsCountersAsMetrics) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", ts)).ok());

  telemetry::MetricsRegistry registry;
  engine.export_metrics(registry);
  std::ostringstream os;
  telemetry::write_prometheus(os, registry);
  const std::string text = os.str();
  EXPECT_NE(text.find("ioguard_admission_requests_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ioguard_admission_fleet_vms 1"), std::string::npos)
      << text;
}

// ------------------------------------------------------------ wire codec

TEST(AdmissionJson, DecodeAdmitRequest) {
  const auto wire = decode_request(
      R"({"op":"admit","tenant":"t0","vm":"vm1","server":{"pi":20,"theta":5},)"
      R"("tasks":[{"id":7,"period":100,"wcet":5,"deadline":80}]})");
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_FALSE(wire->stats);
  EXPECT_EQ(wire->request.op, RequestOp::kAdmit);
  EXPECT_EQ(wire->request.tenant, "t0");
  EXPECT_EQ(wire->request.vm, "vm1");
  ASSERT_TRUE(wire->request.server.has_value());
  EXPECT_EQ(wire->request.server->pi, 20u);
  EXPECT_EQ(wire->request.server->theta, 5u);
  ASSERT_EQ(wire->request.tasks.size(), 1u);
  const auto& t = wire->request.tasks.tasks()[0];
  EXPECT_EQ(t.id.value, 7u);
  EXPECT_EQ(t.period, 100u);
  EXPECT_EQ(t.wcet, 5u);
  EXPECT_EQ(t.deadline, 80u);
}

TEST(AdmissionJson, DeadlineDefaultsToPeriod) {
  const auto wire = decode_request(
      R"({"op":"admit","tenant":"t","vm":"v",)"
      R"("tasks":[{"id":1,"period":50,"wcet":2}]})");
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->request.tasks.tasks()[0].deadline, 50u);
}

TEST(AdmissionJson, MalformedInputIsDiagnosticNotCrash) {
  // JSON syntax error: DATA_LOSS.
  const auto syntax = decode_request("{\"op\":");
  ASSERT_FALSE(syntax.ok());
  EXPECT_EQ(syntax.status().code(), StatusCode::kDataLoss);

  // Schema violations: INVALID_ARGUMENT, the usage (exit-2) class.
  for (const char* line : {
           "{}",
           R"({"op":"frobnicate"})",
           R"({"op":"admit","tenant":"t","vm":"v","tasks":[]})",
           R"({"op":"admit","tenant":"t","vm":"v","tasks":[{"id":1}]})",
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":-3,"period":10,"wcet":1}]})",
           // Wire tasks violating 0 < C <= D <= T must be rejected by the
           // codec, never CHECK-crash the daemon in TaskSet::add.
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":1,"period":10,"wcet":20}]})",
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":1,"period":10,"wcet":0}]})",
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":1,"period":10,"wcet":2,"deadline":15}]})",
           R"({"op":"evict","tenant":"t"})",
       }) {
    const auto wire = decode_request(line);
    ASSERT_FALSE(wire.ok()) << line;
    EXPECT_EQ(wire.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(exit_code(wire.status()), 2) << line;
  }

  // The error line a daemon would answer with is well-formed JSON itself.
  const std::string err = encode_error(syntax.status());
  const auto parsed = parse_json(err);
  ASSERT_TRUE(parsed.ok()) << err;
  ASSERT_NE(parsed->find("code"), nullptr);
  EXPECT_EQ(parsed->find("code")->str, "data_loss");
}

TEST(AdmissionJson, DecisionRoundTripsThroughWireFormat) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  const auto decision = engine.handle(admit("t0", "vm0", ts));
  ASSERT_TRUE(decision.ok());

  const std::string line = encode_decision(*decision);
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.ok()) << line;
  ASSERT_NE(parsed->find("ok"), nullptr);
  EXPECT_TRUE(parsed->find("ok")->boolean);
  EXPECT_EQ(parsed->find("op")->str, "admit");
  EXPECT_EQ(parsed->find("tenant")->str, "t0");
  EXPECT_TRUE(parsed->find("admitted")->boolean);
  ASSERT_NE(parsed->find("per_vm"), nullptr);
  ASSERT_EQ(parsed->find("per_vm")->items.size(), 1u);
  EXPECT_EQ(parsed->find("per_vm")->items[0].find("vm")->str, "vm0");

  // Canonical encoding: the same decision always encodes to the same bytes.
  EXPECT_EQ(line, encode_decision(*decision));
}

TEST(AdmissionJson, StatsLineCarriesEngineCounters) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", ts)).ok());

  const auto wire = decode_request(R"({"op":"stats"})");
  ASSERT_TRUE(wire.ok());
  EXPECT_TRUE(wire->stats);

  const std::string line = encode_counters(
      engine.counters(), engine.fleet_size(), engine.fleet_fingerprint());
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.ok()) << line;
  const Json* stats = parsed->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->number, 1.0);
  EXPECT_EQ(stats->find("fleet_vms")->number, 1.0);
}

TEST(AdmissionService, CheckBoundBeyondSlotIsRejected) {
  // Theorem 4's bound for this VM is near 3e25 slots. Cast to 64 bits it
  // becomes 1 (x86-64 GCC), a bound that checks nothing and admits the VM,
  // although task 2 misses at t = 1.
  const auto wire = decode_request(
      R"({"op":"admit","tenant":"a","vm":"v","server":{"pi":1000,"theta":999},)"
      R"("tasks":[{"id":1,"period":1099511627776,"wcet":1098412116147},)"
      R"({"id":2,"period":35184372088832,"wcet":1,"deadline":1}]})");
  ASSERT_TRUE(wire.ok()) << wire.status();
  AdmissionEngine engine(sched::TimeSlotTable(1000), AdmissionEngineConfig{});
  const auto decision = engine.handle(wire->request);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_FALSE(decision->admitted);
  EXPECT_FALSE(decision->applied);
  ASSERT_EQ(decision->per_vm.size(), 1u);
  EXPECT_FALSE(decision->per_vm[0].local.schedulable);
  EXPECT_EQ(decision->per_vm[0].local.checked_until, 0u);
  EXPECT_EQ(engine.fleet_size(), 0u);
}

// ------------------------------------------------------ golden reply bytes

/// A 128-slot table with slot 0 reserved: F/H = 127/128 = 0.9921875, a tie
/// at the 7th decimal that the fixed 6-digit formatting must round to even.
sched::TimeSlotTable golden_table() {
  sched::TimeSlotTable table(128);
  table.reserve(0, TaskId{99});
  return table;
}

/// Control bytes other than '\n' as `\xNN`, so the fixture stays plain
/// text while still pinning canonical_string()'s raw name bytes.
std::string visible(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 && c != '\n') {
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

/// Appends one request's reply the way ioguard_admitd writes it, followed
/// by the decision's canonical_string() when there is a decision.
void serve_golden(AdmissionEngine& engine, const AdmissionRequest& request,
                  std::string& out) {
  const auto decision = engine.handle(request);
  if (!decision.ok()) {
    out += encode_error(decision.status()) + "\n";
    return;
  }
  out += encode_decision(*decision) + "\n";
  out += visible(decision->canonical_string());
}

/// Pins admitd's reply bytes over a scripted session: escaped names,
/// explicit and synthesized servers, L- and G-level rejections of admits
/// and updates, evictions, queries, stats, malformed lines, caller errors
/// the codec and the engine catch, mixed-criticality VMs, and
/// utilizations and bandwidths that round in the 6th decimal.
TEST(AdmissionService, GoldenSession) {
  const char* const kSession[] = {
      // Explicit server; util 2/30 + 1/128 = 0.07447916...
      R"({"op":"admit","tenant":"t0","vm":"vm0","server":{"pi":10,"theta":2},)"
      R"("tasks":[{"id":1,"period":30,"wcet":2},{"id":2,"period":128,"wcet":1}]})",
      // Synthesized server; names with \r and \t.
      R"({"op":"admit","tenant":"cr\rtenant","vm":"tab\tvm",)"
      R"("tasks":[{"id":7,"period":300,"wcet":100,"deadline":290},)"
      R"({"id":8,"period":600,"wcet":1}]})",
      // Demand above 1: no server over the Pi menu carries it, and the
      // reason names a tenant with a quote and a vm with a backslash.
      R"({"op":"admit","tenant":"q\"uote","vm":"back\\slash",)"
      R"("tasks":[{"id":1,"period":4,"wcet":3},{"id":2,"period":4,"wcet":3}]})",
      // Explicit server too thin for its task: Theorem 4 rejects it. Its
      // util 1/128 = 0.0078125 is a tie at the 7th decimal.
      R"({"op":"admit","tenant":"ctl\u0001","vm":"vm\u0001",)"
      R"("server":{"pi":128,"theta":1},"tasks":[{"id":1,"period":128,"wcet":1}]})",
      // util 1/128 + 2/15 = 0.14114583...
      R"({"op":"admit","tenant":"t1","vm":"\u00e9",)"
      R"("tasks":[{"id":3,"period":1280,"wcet":10},{"id":4,"period":1500,"wcet":200}]})",
      R"({"op":"query"})",
      R"({"op":"stats"})",
      // More than the table has left: Theorem 2 rejects it.
      R"({"op":"admit","tenant":"t2","vm":"big",)"
      R"("tasks":[{"id":1,"period":100,"wcet":60}]})",
      // Rejected updates, at Theorem 2 and at synthesis, leave t0/vm0 as
      // it was.
      R"({"op":"update","tenant":"t0","vm":"vm0",)"
      R"("tasks":[{"id":1,"period":100,"wcet":70}]})",
      R"({"op":"update","tenant":"t0","vm":"vm0",)"
      R"("tasks":[{"id":1,"period":4,"wcet":3},{"id":2,"period":4,"wcet":3}]})",
      R"({"op":"query"})",
      // An applied update onto an explicit server.
      R"({"op":"update","tenant":"t0","vm":"vm0","server":{"pi":20,"theta":3},)"
      R"("tasks":[{"id":1,"period":200,"wcet":7,"deadline":150}]})",
      R"({"op":"update","tenant":"t0","vm":"ghost","tasks":[{"id":1,"period":100,"wcet":1}]})",
      R"({"op":"admit","tenant":"t0","vm":"vm0","tasks":[{"id":1,"period":100,"wcet":1}]})",
      R"({"op":"admit","tenant":"t0","vm":"vm9","server":{"pi":10,"theta":11},)"
      R"("tasks":[{"id":1,"period":100,"wcet":1}]})",
      R"({"op":"admit","tenant":"t9","vm":"v9","tasks":[{"id":1,"period":10,"wcet":20}]})",
      R"({"op":"admit","tenant":)",
      R"(not json)",
      R"({"op":"frobnicate"})",
      R"({"op":"evict","tenant":"t0","vm":"vm0"})",
      R"({"op":"evict","tenant":"t0","vm":"vm0"})",
      R"({"op":"evict_tenant","tenant":"cr\rtenant"})",
      R"({"op":"evict_tenant","tenant":"nobody"})",
      R"({"op":"query"})",
      R"({"op":"stats"})",
  };

  AdmissionEngine engine(golden_table(), AdmissionEngineConfig{});
  std::string out;
  const auto stats = [&] {
    out += encode_counters(engine.counters(), engine.fleet_size(),
                           engine.fleet_fingerprint()) +
           "\n";
  };
  for (const char* line : kSession) {
    out += "> ";
    out += line;
    out += '\n';
    const auto wire = decode_request(line);
    if (!wire.ok()) {
      out += encode_error(wire.status()) + "\n";
    } else if (wire->stats) {
      stats();
    } else {
      serve_golden(engine, wire->request, out);
    }
  }

  // Requests only the C++ surface can express: empty names, task sets that
  // bypass TaskSet::add's checks (each trips one of validate's messages),
  // and dual-criticality VMs.
  const auto request = [&](const std::string& what, AdmissionRequest req) {
    out += "> c++ " + what + "\n";
    serve_golden(engine, req, out);
  };
  workload::TaskSet one;
  one.add(task(1, 100, 1, 100));
  request("admit with no tenant", admit("", "v3", one));
  AdmissionRequest no_vm;
  no_vm.op = RequestOp::kEvict;
  no_vm.tenant = "t3";
  request("evict with no vm", no_vm);
  request("admit with no tasks", admit("t3", "v3", {}));
  AdmissionRequest zero_pi = admit("t3", "v3", one);
  zero_pi.server = sched::ServerParams{0, 0};
  request("admit with Pi = 0", zero_pi);
  const auto spec = [](Slot t, Slot c, Slot d, Slot c_hi) {
    workload::IoTaskSpec s = task(5, t, c, d);
    s.wcet_hi = c_hi;
    return s;
  };
  for (const auto& bad : {spec(0, 1, 1, 0), spec(10, 0, 10, 0),
                          spec(10, 1, 0, 0), spec(10, 1, 20, 0),
                          spec(10, 6, 5, 0), spec(10, 4, 8, 3),
                          spec(10, 4, 8, 9)}) {
    request("admit (T, C, D, C_hi) = (" + std::to_string(bad.period) + ", " +
                std::to_string(bad.wcet) + ", " +
                std::to_string(bad.deadline) + ", " +
                std::to_string(bad.wcet_hi) + ")",
            admit("t3", "v3", workload::TaskSet({bad})));
  }

  workload::IoTaskSpec hi = task(6, 400, 10, 400);
  hi.criticality = workload::Criticality::kHi;
  hi.wcet_hi = 30;
  workload::TaskSet mixed;
  mixed.add(hi);
  mixed.add(task(7, 800, 40, 700));
  request("admit t4/mc, synthesized: HI (400, 10, 400, C_hi=30) + LO (800, "
          "40, 700)",
          admit("t4", "mc", mixed));
  AdmissionRequest mixed_explicit = admit("t4", "mc", mixed);
  mixed_explicit.server = sched::ServerParams{20, 6};
  request("admit t4/mc onto (20, 6)", mixed_explicit);
  // Fits at LO budgets, not once every server is inflated 1.5x.
  AdmissionRequest lo_explicit = admit("t5", "lo", one);
  lo_explicit.server = sched::ServerParams{10, 5};
  request("admit t5/lo onto (10, 5)", lo_explicit);
  request("query", AdmissionRequest{});
  out += "> c++ stats\n";
  stats();

  ioguard::testing::expect_matches_golden("admission_session_golden.txt",
                                          out);
}

// ----------------------------------------------------------- determinism

/// The service must be jobs-width independent: N engines replaying the same
/// script on N threads land on the same decisions as a sequential replay.
TEST(AdmissionEngine, DeterministicAcrossWorkerWidths) {
  workload::TaskSet a;
  a.add(task(1, 100, 5, 80));
  workload::TaskSet b;
  b.add(task(2, 200, 20, 150));

  std::vector<AdmissionRequest> script;
  script.push_back(admit("t0", "vm0", a));
  script.push_back(admit("t1", "vm1", b));
  AdmissionRequest update = admit("t0", "vm0", b);
  update.op = RequestOp::kUpdate;
  script.push_back(update);
  AdmissionRequest evict;
  evict.op = RequestOp::kEvict;
  evict.tenant = "t1";
  evict.vm = "vm1";
  script.push_back(evict);

  const auto replay = [&script] {
    AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
    std::string all;
    for (const auto& req : script) {
      const auto d = engine.handle(req);
      all += d.ok() ? d->canonical_string()
                    : "error|" + d.status().to_string();
      all += '\n';
    }
    all += "fingerprint=" + std::to_string(engine.fleet_fingerprint());
    return all;
  };

  const std::string sequential = replay();
  constexpr int kJobs = 4;
  std::vector<std::string> results(kJobs);
  {
    std::vector<std::thread> workers;
    workers.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j)
      workers.emplace_back([&results, &replay, j] { results[j] = replay(); });
    for (auto& w : workers) w.join();
  }
  for (int j = 0; j < kJobs; ++j) EXPECT_EQ(results[j], sequential) << j;
}

}  // namespace
}  // namespace ioguard::service
