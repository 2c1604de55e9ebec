// cosim_mesh: short cycle-accurate co-simulations (sys::run_cosim) with
// cycle_accurate_demo's defaults, cycling over the four architectures.
#include <array>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "system/cosim.hpp"

namespace perfbench {
namespace {

using ioguard::sys::CosimConfig;
using ioguard::sys::CosimResult;
using ioguard::sys::SystemKind;

constexpr std::array<SystemKind, 4> kKinds = {
    SystemKind::kLegacy, SystemKind::kRtXen, SystemKind::kBlueVisor,
    SystemKind::kIoGuard};
/// 12 runs in the op list, so each runs at least five times in a run (the
/// timings come from each op's fastest execution).
constexpr std::size_t kSeedsPerList = 3;
/// Short enough for that; every router still ticks on each of its 3,000
/// cycles.
constexpr ioguard::Slot kHorizonSlots = 30;
constexpr std::uint64_t kCosimStream = 0xc051a;

/// Result bytes: every count and every sample, doubles in hexfloat.
std::string result_bytes(const CosimResult& r) {
  std::ostringstream os;
  os << std::hexfloat << r.jobs_counted << ' ' << r.jobs_on_time << ' '
     << r.critical_misses << ' ' << r.dropped << ' '
     << r.noc_packets_delivered << "\nreq";
  for (const double x : r.request_latency_cycles.samples()) os << ' ' << x;
  os << "\nresp";
  for (const double x : r.response_slots.samples()) os << ' ' << x;
  os << '\n';
  return os.str();
}

class CosimMesh final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    ops_.clear();
    for (std::size_t g = 0; g < kSeedsPerList; ++g) {
      for (const SystemKind kind : kKinds) {
        CosimConfig c;  // cycle_accurate_demo's defaults
        c.kind = kind;
        c.workload.num_vms = 8;
        c.workload.target_utilization = 0.6;
        c.workload.preload_fraction = 0.7;
        c.horizon_slots = kHorizonSlots;
        c.background_rate = 0.002;
        c.seed = ioguard::mix_seed(seed, kCosimStream, g);
        ops_.push_back(c);
      }
    }
  }
  [[nodiscard]] std::size_t size() const override { return ops_.size(); }
  [[nodiscard]] std::size_t warmup_ops() const override {
    return kKinds.size();
  }

  void step(std::size_t index, Tracer* tracer,
            std::vector<OpRecord>& out) override {
    const CosimConfig& cfg = ops_.at(index);
    const auto t0 = Clock::now();
    const CosimResult result = ioguard::sys::run_cosim(cfg);
    const auto t1 = Clock::now();
    const std::string bytes = result_bytes(result);
    const auto t2 = Clock::now();
    OpRecord rec;
    rec.index = index;
    rec.seconds = seconds_between(t0, t2);
    rec.hash = fnv1a(bytes);
    out.push_back(rec);
    if (tracer == nullptr) return;
    const std::uint64_t op = tracer->new_op();
    const int root = tracer->record("op", op, t0, t2);
    tracer->record("system.run_cosim", op, t0, t1, root);
    const double cycles = static_cast<double>(cfg.horizon_slots) *
                          static_cast<double>(cfg.cal.cycles_per_slot);
    tracer->sample("noc.ns_per_cycle", seconds_between(t0, t1) * 1e9 / cycles);
    tracer->sample("noc.packets",
                   static_cast<double>(result.noc_packets_delivered));
  }

  [[nodiscard]] std::vector<OpRecord> oracle() override {
    // No second implementation exists: re-run one op per architecture and
    // require the same bytes (determinism in the config).
    std::vector<OpRecord> out;
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      OpRecord rec;
      rec.index = ops_.size() - 1 - i;
      rec.hash = fnv1a(result_bytes(ioguard::sys::run_cosim(ops_[rec.index])));
      out.push_back(rec);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t op_list_fingerprint() const override {
    std::uint64_t h = fnv1a("cosim_mesh\n");
    for (const CosimConfig& c : ops_) {
      std::ostringstream os;
      os << ioguard::sys::to_string(c.kind) << '|' << c.workload.num_vms << '|'
         << c.workload.target_utilization << '|' << c.workload.preload_fraction
         << '|' << c.horizon_slots << '|' << c.background_rate << '|' << c.seed
         << '\n';
      h = fnv1a(os.str(), h);
    }
    return h;
  }

 private:
  std::vector<CosimConfig> ops_;
};

}  // namespace

std::unique_ptr<Workload> make_cosim_mesh(const WorkloadOptions&) {
  return std::make_unique<CosimMesh>();
}

}  // namespace perfbench
