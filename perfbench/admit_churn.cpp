// admit_churn: ioguard_admitd's per-line path, in process, over a seeded
// JSON-lines churn of a 48-VM, 4-tenant fleet.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sched/slot_table.hpp"
#include "service/admission_engine.hpp"
#include "service/admission_json.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using ioguard::service::AdmissionEngine;
using ioguard::service::AdmissionEngineConfig;
using ioguard::service::EngineCounters;

constexpr std::size_t kFleetVms = 48;
constexpr std::size_t kTenants = 4;
/// bench_admission_service's fleet: all 48 task sets together use 0.35 of
/// the device, about half of what the table leaves free.
constexpr double kFleetUtil = 0.35;
/// One admit of a never-seen task set (a miss) every kMissEvery requests,
/// so misses are 2.5 % of requests: p99 falls among them, p90 among hits.
constexpr std::size_t kMissEvery = 40;
/// One admit that over-subscribes the table (an analytic rejection) every
/// kRejectEvery requests: 5 per 1,000.
constexpr std::size_t kRejectEvery = 200;
/// A task set that alone needs more than the 0.75 of the device the table
/// leaves for VMs, so Theorem 2 rejects it whatever the fleet's state (a
/// smaller one would fit whenever the churn had shrunk the fleet, and the
/// requests that follow assume it was rejected).
constexpr double kOversubscribedUtil = 0.8;
constexpr std::size_t kFreshSets = 120;  ///< never-seen task sets
constexpr std::size_t kPassRequests = kFreshSets * kMissEvery;  ///< 4,800
constexpr std::size_t kBigSets = kPassRequests / kRejectEvery;  ///< 24
constexpr std::size_t kStepRequests = 100;  ///< requests a step serves
static_assert(kPassRequests % kStepRequests == 0);
/// The task-set catalogue is drawn once from this fixed stream, so every
/// seed's pass analyses the same task sets; the seed draws the requests.
constexpr std::uint64_t kCatalogueSeed = 0xad317ca7;
constexpr std::uint64_t kChurnStream = 0xad317;

/// ioguard_admitd's default serving table (--hyperperiod=1000
/// --busy-every=4): every 4th slot reserved for the P-channel.
ioguard::sched::TimeSlotTable serving_table() {
  ioguard::sched::TimeSlotTable table(1000);
  for (ioguard::Slot s = 0; s < table.hyperperiod(); s += 4)
    table.reserve(s, ioguard::TaskId{0});
  return table;
}

/// The `tasks` array of one VM's task set, in bench_admission_service's
/// shape (4-6 tasks splitting `util` by UUniFast, log-uniform periods,
/// deadlines up to 10 % shorter than the period) but with periods in
/// [500, 5000) slots instead of [200, 2000): periods that short force
/// servers with Pi <= 50, and 48 such VMs need more than the table's 0.75.
std::string tasks_json(ioguard::Rng& rng, std::size_t n, double util) {
  const auto shares = ioguard::workload::uunifast(rng, n, util);
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    const auto period =
        static_cast<std::uint64_t>(rng.log_uniform(500, 5000));
    const std::uint64_t deadline = period - rng.uniform_int(0, period / 10);
    const auto wcet = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(shares[i] * static_cast<double>(period)),
        1, deadline);
    if (i > 0) out += ',';
    out += "{\"id\":" + std::to_string(i + 1) +
           ",\"period\":" + std::to_string(period) +
           ",\"wcet\":" + std::to_string(wcet) +
           ",\"deadline\":" + std::to_string(deadline) + "}";
  }
  return out + "]";
}

struct Catalogue {
  std::vector<std::string> fleet;  ///< the warm fleet's task sets
  std::vector<std::string> fresh;  ///< admitted once a pass: misses
  std::vector<std::string> big;    ///< over-subscribing: rejections
};

Catalogue build_catalogue() {
  ioguard::Rng rng(kCatalogueSeed);
  const double vm_util = kFleetUtil / static_cast<double>(kFleetVms);
  Catalogue c;
  for (std::size_t v = 0; v < kFleetVms; ++v)
    c.fleet.push_back(tasks_json(rng, 4 + v % 3, vm_util));
  for (std::size_t v = 0; v < kFreshSets; ++v)
    c.fresh.push_back(tasks_json(rng, 4 + v % 3, vm_util));
  for (std::size_t v = 0; v < kBigSets; ++v)
    c.big.push_back(tasks_json(rng, 4 + v % 3, kOversubscribedUtil));
  return c;
}

std::string request(const char* op, const std::string& tenant,
                    const std::string& vm, const std::string& tasks = {}) {
  std::string out = std::string("{\"op\":\"") + op + "\",\"tenant\":\"" +
                    tenant + "\",\"vm\":\"" + vm + "\"";
  if (!tasks.empty()) out += ",\"tasks\":" + tasks;
  return out + "}";
}

struct Script {
  std::vector<std::string> warm;   ///< admits of the warm fleet
  std::vector<std::string> churn;  ///< the op list: one pass of one engine
};

/// The request lines of one seed. Between the misses and rejections the
/// fleet churns as in bench_admission_service: a random fleet VM is
/// re-admitted when evicted, else updated or evicted with equal odds (a
/// third each, all cache hits on task sets already seen). Every request
/// position's kind is fixed; the seed picks the VMs, tenants and the order
/// of the catalogue's task sets.
Script build_script(std::uint64_t seed) {
  const Catalogue cat = build_catalogue();
  ioguard::Rng rng(ioguard::mix_seed(seed, kChurnStream));
  const auto tenant = [](std::size_t i) {
    return "tenant" + std::to_string(i % kTenants);
  };
  Script s;
  for (std::size_t v = 0; v < kFleetVms; ++v)
    s.warm.push_back(
        request("admit", tenant(v), "vm" + std::to_string(v), cat.fleet[v]));

  std::vector<std::size_t> fresh(kFreshSets), big(kBigSets);
  for (std::size_t i = 0; i < fresh.size(); ++i) fresh[i] = i;
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  rng.shuffle(fresh);
  rng.shuffle(big);
  std::vector<bool> admitted(kFleetVms, true);
  std::string fresh_tenant;
  std::string fresh_vm;
  for (std::size_t r = 0; r < kPassRequests; ++r) {
    if (r % kMissEvery == 0) {
      // A never-seen task set, evicted again half a period later.
      const std::size_t set = fresh[r / kMissEvery];
      fresh_tenant = tenant(rng.index(kTenants));
      fresh_vm = "new" + std::to_string(set);
      s.churn.push_back(
          request("admit", fresh_tenant, fresh_vm, cat.fresh[set]));
    } else if (r % kMissEvery == kMissEvery / 2) {
      s.churn.push_back(request("evict", fresh_tenant, fresh_vm));
    } else if (r % kRejectEvery == kRejectEvery / 4) {
      const std::size_t set = big[r / kRejectEvery];
      s.churn.push_back(request("admit", tenant(rng.index(kTenants)),
                                "big" + std::to_string(set), cat.big[set]));
    } else {
      const std::size_t v = rng.index(kFleetVms);
      const std::string vm = "vm" + std::to_string(v);
      if (!admitted[v]) {
        admitted[v] = true;
        s.churn.push_back(request("admit", tenant(v), vm, cat.fleet[v]));
      } else if (rng.bernoulli(0.5)) {
        s.churn.push_back(request("update", tenant(v), vm, cat.fleet[v]));
      } else {
        admitted[v] = false;
        s.churn.push_back(request("evict", tenant(v), vm));
      }
    }
  }
  return s;
}

struct Served {
  bool ok = false;
  std::string line;
};

/// ioguard_admitd's per-line path: decode, handle, encode.
Served serve(AdmissionEngine& engine, const std::string& line) {
  const auto wire = ioguard::service::decode_request(line);
  if (!wire.ok()) return {false, ioguard::service::encode_error(wire.status())};
  const auto decision = engine.handle(wire->request);
  if (!decision.ok())
    return {false, ioguard::service::encode_error(decision.status())};
  return {true, ioguard::service::encode_decision(*decision)};
}

/// A fresh engine serving the warm fleet; every warm admit must succeed.
std::unique_ptr<AdmissionEngine> warm_engine(const Script& script,
                                             bool memoize) {
  AdmissionEngineConfig config;
  config.memoize = memoize;
  auto engine = std::make_unique<AdmissionEngine>(serving_table(), config);
  for (const std::string& line : script.warm) {
    const Served s = serve(*engine, line);
    if (!s.ok || s.line.find("\"admitted\":true") == std::string::npos)
      throw std::runtime_error("warm fleet admit failed: " +
                               s.line.substr(0, 200));
  }
  return engine;
}

class AdmitChurn final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    script_ = build_script(seed);
    engine_ = warm_engine(script_, /*memoize=*/true);
    used_ = false;
  }
  [[nodiscard]] std::size_t size() const override {
    return script_.churn.size();
  }
  /// One whole pass, so the timed phase starts on a fresh engine.
  [[nodiscard]] std::size_t warmup_ops() const override {
    return kPassRequests;
  }

  void before_step(std::size_t index) override {
    // Every pass over the op list starts from the same warm fleet, so every
    // pass sees the same hits, misses and decisions. The old engine goes
    // first, so no step holds two.
    if (index == 0 && used_) {
      engine_.reset();
      engine_ = warm_engine(script_, true);
    }
    used_ = true;
  }

  /// A step is 100 consecutive requests (about 8 ms). Every pass starts
  /// from the same engine state, so a step repeats exactly from pass to
  /// pass and its fastest execution is taken as its time. Short, because a
  /// short step finds a quiet CPU more often: over ten seeds the fastest
  /// times of whole 0.5-s passes spread 2.5 times as far as the requests'.
  void step(std::size_t index, Tracer* tracer,
            std::vector<OpRecord>& out) override {
    if (index % kStepRequests != 0)
      throw std::logic_error("admit_churn steps start every 100 requests");
    for (std::size_t r = index; r < index + kStepRequests; ++r)
      out.push_back(tracer == nullptr ? serve_timed(r)
                                      : serve_traced(r, *tracer));
  }

  void finish_trace(Tracer& tracer) override {
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses);
    };
    tracer.sample("service.local_hit_ratio",
                  ratio(traced_.local_hits, traced_.local_misses));
    tracer.sample("service.global_hit_ratio",
                  ratio(traced_.global_hits, traced_.global_misses));
    tracer.sample("service.synth_hit_ratio",
                  ratio(traced_.synth_hits, traced_.synth_misses));
    if (traced_.requests > 0)
      tracer.sample("service.rejected",
                    1000.0 * static_cast<double>(traced_.rejected) /
                        static_cast<double>(traced_.requests));
  }

  [[nodiscard]] std::vector<OpRecord> oracle() override {
    // Full re-analysis (no verdict caches) must reproduce the memoized
    // decisions byte for byte over the head of the op list (10 misses and
    // 2 rejections among them).
    const auto reference = warm_engine(script_, /*memoize=*/false);
    std::vector<OpRecord> out;
    for (std::size_t i = 0; i < 400; ++i) {
      OpRecord rec;
      rec.index = i;
      const Served s = serve(*reference, script_.churn[i]);
      rec.ok = s.ok;
      rec.hash = fnv1a(s.line);
      out.push_back(rec);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t op_list_fingerprint() const override {
    std::uint64_t h = fnv1a("admit_churn\n");
    for (const auto* lines : {&script_.warm, &script_.churn})
      for (const std::string& line : *lines) h = fnv1a(line + "\n", h);
    return h;
  }

 private:
  OpRecord serve_timed(std::size_t index) {
    OpRecord rec;
    rec.index = index;
    const auto t0 = Clock::now();
    const Served s = serve(*engine_, script_.churn[index]);
    rec.seconds = seconds_between(t0, Clock::now());
    rec.ok = s.ok;
    rec.hash = fnv1a(s.line);
    return rec;
  }

  /// The same three calls, each timed.
  OpRecord serve_traced(std::size_t index, Tracer& tracer) {
    const EngineCounters before = engine_->counters();
    OpRecord rec;
    rec.index = index;
    std::string reply;
    const auto t0 = Clock::now();
    const auto wire = ioguard::service::decode_request(script_.churn[index]);
    const auto t1 = Clock::now();
    auto t2 = t1;
    if (wire.ok()) {
      const auto decision = engine_->handle(wire->request);
      t2 = Clock::now();
      rec.ok = decision.ok();
      reply = decision.ok()
                  ? ioguard::service::encode_decision(*decision)
                  : ioguard::service::encode_error(decision.status());
    } else {
      rec.ok = false;
      reply = ioguard::service::encode_error(wire.status());
    }
    const auto t3 = Clock::now();
    rec.seconds = seconds_between(t0, t3);
    rec.hash = fnv1a(reply);

    const std::uint64_t op = tracer.new_op();
    const int root = tracer.record("op", op, t0, t3);
    tracer.record("service.decode_request", op, t0, t1, root);
    tracer.record("service.AdmissionEngine::handle", op, t1, t2, root);
    tracer.record("service.encode_decision", op, t2, t3, root);
    tracer.sample("service.decode_us", seconds_between(t0, t1) * 1e6);
    tracer.sample("service.handle_us", seconds_between(t1, t2) * 1e6);
    tracer.sample("service.encode_us", seconds_between(t2, t3) * 1e6);
    const EngineCounters& after = engine_->counters();
    traced_.requests += after.requests - before.requests;
    traced_.rejected += after.rejected - before.rejected;
    traced_.local_hits += after.local_hits - before.local_hits;
    traced_.local_misses += after.local_misses - before.local_misses;
    traced_.global_hits += after.global_hits - before.global_hits;
    traced_.global_misses += after.global_misses - before.global_misses;
    traced_.synth_hits += after.synth_hits - before.synth_hits;
    traced_.synth_misses += after.synth_misses - before.synth_misses;
    return rec;
  }

  Script script_;
  std::unique_ptr<AdmissionEngine> engine_;
  bool used_ = false;
  EngineCounters traced_;
};

}  // namespace

std::unique_ptr<Workload> make_admit_churn(const WorkloadOptions&) {
  return std::make_unique<AdmitChurn>();
}

}  // namespace perfbench
