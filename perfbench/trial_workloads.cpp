// ioguard_dense and fig7_sweep: the two workloads whose op is one trial of
// the slot-level simulator (sys::run_trial).
#include <array>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/hypervisor.hpp"
#include "system/checkpoint.hpp"
#include "system/experiment.hpp"
#include "system/parallel.hpp"
#include "system/runner.hpp"
#include "telemetry/prometheus.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using ioguard::sys::SystemKind;
using ioguard::sys::TrialConfig;
using ioguard::sys::TrialResult;

TrialConfig validated_or_throw(const TrialConfig& raw) {
  auto cfg = TrialConfig::validated(raw);
  if (!cfg.ok())
    throw std::runtime_error("invalid trial config: " +
                             cfg.status().to_string());
  return std::move(cfg).value();
}

std::string summary_bytes(const TrialConfig& cfg, const TrialResult& result) {
  std::ostringstream os;
  ioguard::sys::write_trial_summary_json(os, cfg, result);
  return os.str();
}

std::string config_key(const TrialConfig& c) {
  std::ostringstream os;
  os << ioguard::sys::to_string(c.kind) << '|' << c.workload.num_vms << '|'
     << c.workload.target_utilization << '|' << c.workload.preload_fraction
     << '|' << c.min_jobs_per_task << '|' << c.trial_seed << '|'
     << c.collect_jitter << '\n';
  return os.str();
}

std::size_t jitter_samples(const TrialResult& r) {
  std::size_t n = 0;
  for (const auto* sets : {&r.jitter.p_by_vm, &r.jitter.r_by_vm,
                           &r.jitter.fifo_by_vm,
                           &r.jitter.translator_by_device})
    for (const auto& s : *sets) n += s.count();
  return n;
}

/// A finished trial whose per-layer samples are still to be taken.
struct TracedTrial {
  TrialConfig config;
  TrialResult result;
  double seconds = 0.0;  ///< run_trial wall time
  std::uint64_t op = 0;
  int span = -1;         ///< the op's root span
};

/// The traced run's extra calls on one trial's own config: the workload
/// build, the release trace and (I/O-GUARD) the hypervisor design that
/// run_trial performs first, with run_trial's seed derivations. The slot
/// loop's share is the trial's time minus these three.
void trial_layer_samples(Tracer& tracer, const TracedTrial& t) {
  const TrialConfig& c = t.config;
  ioguard::workload::CaseStudyConfig wl_cfg = c.workload;
  if (c.kind != SystemKind::kIoGuard) wl_cfg.preload_fraction = 0.0;
  wl_cfg.seed = c.trial_seed * 1000003ULL + 17;

  const auto t0 = Clock::now();
  const auto wl = ioguard::workload::build_case_study(wl_cfg);
  const auto t1 = Clock::now();
  const ioguard::Slot horizon =
      c.horizon > 0 ? c.horizon
                    : ioguard::workload::horizon_for_min_jobs(
                          wl.tasks, c.min_jobs_per_task);
  ioguard::workload::ArrivalConfig arr;
  arr.horizon = horizon;
  arr.seed = c.trial_seed * 2654435761ULL + 99;
  const auto jobs = ioguard::workload::generate_trace(wl.tasks, arr);
  const auto t2 = Clock::now();
  if (horizon != t.result.horizon)
    throw std::runtime_error("traced workload build disagrees with run_trial");

  const int extras = tracer.record("extras", t.op, t0, t2, t.span);
  tracer.record("workload.build_case_study", t.op, t0, t1, extras);
  tracer.record("workload.generate_trace", t.op, t1, t2, extras);
  const double gen_s = seconds_between(t0, t2);
  double design_s = 0.0;
  if (c.kind == SystemKind::kIoGuard) {
    ioguard::core::HypervisorConfig hc;
    hc.num_vms = wl_cfg.num_vms;
    hc.pool_capacity = c.cal.pool_capacity;
    hc.dispatch_overhead_slots = c.cal.dispatch_overhead_slots;
    hc.policy = c.gsched_policy;
    hc.translator.wcet_cycles = c.cal.translation_wcet_cycles;
    hc.resilience = c.resilience;
    hc.mode_switch = c.mode_switch;
    const auto t3 = Clock::now();
    const ioguard::core::Hypervisor hyp(wl, hc);
    const auto t4 = Clock::now();
    tracer.record("core.Hypervisor", t.op, t3, t4, extras);
    design_s = seconds_between(t3, t4);
    tracer.sample("core.design_ms", design_s * 1e3);
  }
  tracer.sample("workload.gen_ms", gen_s * 1e3);
  tracer.sample("workload.jobs", static_cast<double>(jobs.size()));
  tracer.sample("core.busy_frac", t.result.device_busy_frac);
  tracer.sample(c.kind == SystemKind::kIoGuard
                    ? "system.loop_ns_per_slot.ioguard"
                    : "system.loop_ns_per_slot.baseline",
                (t.seconds - gen_s - design_s) * 1e9 /
                    static_cast<double>(horizon));
}

// ---------------------------------------------------------------------------
// ioguard_dense: sequential I/O-GUARD trials at 90 % device utilization.

/// Few enough distinct trials that each runs at least five times in a run
/// (the timings come from each op's fastest execution), enough that the
/// mean over them hardly depends on the seed: the trials' own costs differ
/// by a few percent, the host's spells by up to 1.6x.
constexpr std::size_t kDenseOps = 32;
constexpr std::uint64_t kDenseStream = 0xde05e;

class IoguardDense final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    ops_.clear();
    for (std::size_t i = 0; i < kDenseOps; ++i) {
      TrialConfig c;
      c.kind = SystemKind::kIoGuard;
      c.workload.num_vms = 8;
      c.workload.target_utilization = 0.9;
      c.workload.preload_fraction = 0.7;
      c.min_jobs_per_task = 25;  // Fig. 7's setting: 250 k slots
      c.trial_seed = ioguard::mix_seed(seed, kDenseStream, i);
      ops_.push_back(validated_or_throw(c));
    }
  }
  [[nodiscard]] std::size_t size() const override { return ops_.size(); }
  [[nodiscard]] std::size_t warmup_ops() const override { return 2; }

  void step(std::size_t index, Tracer* tracer,
            std::vector<OpRecord>& out) override {
    const TrialConfig& cfg = ops_.at(index);
    const auto t0 = Clock::now();
    TrialResult result = ioguard::sys::run_trial(cfg);
    const auto t1 = Clock::now();
    const std::string bytes = summary_bytes(cfg, result);
    const auto t2 = Clock::now();
    OpRecord rec;
    rec.index = index;
    rec.seconds = seconds_between(t0, t2);
    rec.hash = fnv1a(bytes);
    out.push_back(rec);
    if (tracer != nullptr) {
      const std::uint64_t op = tracer->new_op();
      const int root = tracer->record("op", op, t0, t2);
      tracer->record("system.run_trial", op, t0, t1, root);
      tracer->record("system.write_trial_summary_json", op, t1, t2, root);
      pending_ = TracedTrial{cfg, std::move(result), seconds_between(t0, t1),
                             op, root};
    }
  }

  void trace_extras(Tracer& tracer) override {
    if (!pending_) return;
    trial_layer_samples(tracer, *pending_);
    pending_.reset();
  }

  [[nodiscard]] std::vector<OpRecord> oracle() override {
    // The slot-stepped reference loop must reproduce the event-driven bytes.
    std::vector<OpRecord> out;
    for (const std::size_t i : {std::size_t{0}, ops_.size() / 2}) {
      TrialConfig c = ops_.at(i);
      c.stepped = true;
      OpRecord rec;
      rec.index = i;
      rec.hash = fnv1a(summary_bytes(ops_.at(i), ioguard::sys::run_trial(c)));
      out.push_back(rec);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t op_list_fingerprint() const override {
    std::uint64_t h = fnv1a("ioguard_dense\n");
    for (const TrialConfig& c : ops_) h = fnv1a(config_key(c), h);
    return h;
  }

 private:
  std::vector<TrialConfig> ops_;
  std::optional<TracedTrial> pending_;
};

// ---------------------------------------------------------------------------
// fig7_sweep: supervised 2-worker batches over the five Fig. 7 systems,
// configured like `ioguard_cli --telemetry-out --checkpoint`.

constexpr std::size_t kFig7Vms = 4;
/// Two utilizations, the sparse and the dense end of Fig. 7's range, so each
/// of the 40 trials runs about a dozen times in a run (the timings come
/// from each op's fastest execution).
constexpr std::array<double, 2> kFig7Utils = {0.4, 0.7};
constexpr std::size_t kFig7TrialsPerBatch = 4;
constexpr std::size_t kFig7Workers = 2;

struct Batch {
  ioguard::sys::EvaluatedSystem system;
  double util = 0.0;
  std::uint64_t point_key = 0;  ///< checkpoint key, as ioguard_cli derives it
  std::vector<TrialConfig> trials;
};

/// Result bytes of one trial of a batch: the batch's merged Prometheus text
/// followed by the trial's summary.
std::uint64_t batch_trial_hash(const std::string& prom, const TrialConfig& cfg,
                               const TrialResult& result) {
  return fnv1a(summary_bytes(cfg, result), fnv1a(prom));
}

class Fig7Sweep final : public Workload {
 public:
  explicit Fig7Sweep(const WorkloadOptions& options) : options_(options) {}

  void setup(std::uint64_t seed) override {
    batches_.clear();
    for (const double util : kFig7Utils) {
      for (const auto& system : ioguard::sys::figure7_systems()) {
        Batch b;
        b.system = system;
        b.util = util;
        b.point_key = ioguard::sys::checkpoint_point_key(
            system.kind, system.preload_fraction, kFig7Vms, util);
        for (std::size_t t = 0; t < kFig7TrialsPerBatch; ++t) {
          TrialConfig c;
          c.kind = system.kind;
          c.workload.num_vms = kFig7Vms;
          c.workload.target_utilization = util;
          c.workload.preload_fraction = system.preload_fraction;
          c.min_jobs_per_task = 25;
          c.trial_seed = ioguard::mix_seed(
              seed, ioguard::sys::sweep_point_key(kFig7Vms, util), t);
          c.collect_jitter = true;  // rides with --telemetry-out
          b.trials.push_back(validated_or_throw(c));
        }
        batches_.push_back(std::move(b));
      }
    }
    runner_ = std::make_unique<ioguard::sys::ParallelRunner>(kFig7Workers);
    journal_ = open_journal("fig7.journal");
  }
  [[nodiscard]] std::size_t size() const override {
    return batches_.size() * kFig7TrialsPerBatch;
  }
  [[nodiscard]] std::size_t warmup_ops() const override {
    return ioguard::sys::figure7_systems().size() * kFig7TrialsPerBatch;
  }
  [[nodiscard]] std::size_t threads() const override { return kFig7Workers; }

  void step(std::size_t index, Tracer* tracer,
            std::vector<OpRecord>& out) override {
    if (index % kFig7TrialsPerBatch != 0)
      throw std::logic_error("fig7_sweep steps start at batch boundaries");
    const Batch& batch = batches_.at(index / kFig7TrialsPerBatch);
    const std::size_t n = batch.trials.size();

    std::vector<double> seconds(n, 0.0);
    std::vector<std::uint64_t> ops(n, 0);
    std::vector<ioguard::telemetry::MetricsRegistry> deltas(tracer ? n : 0);
    int batch_span = -1;
    if (tracer != nullptr) {
      for (auto& op : ops) op = tracer->new_op();
      batch_span = tracer->open("system.ParallelRunner::run_supervised",
                                ops.front());
    }

    ioguard::sys::SupervisionPolicy policy;
    policy.journal = journal_.get();
    policy.point_key = batch.point_key;
    policy.trial_fn = [&](const TrialConfig& tc) {
      std::size_t t = 0;
      while (batch.trials.at(t).trial_seed != tc.trial_seed) ++t;
      const auto t0 = Clock::now();
      TrialResult r = ioguard::sys::run_trial(tc);
      const auto t1 = Clock::now();
      seconds[t] = seconds_between(t0, t1);
      if (tracer != nullptr) {
        tracer->record("system.run_trial", ops[t], t0, t1, batch_span);
        deltas[t].merge(*tc.metrics);
      }
      return r;
    };
    ioguard::telemetry::MetricsRegistry registry;
    ioguard::sys::BatchTiming timing;
    const ioguard::sys::BatchResult result = runner_->run_supervised(
        n, [&batch](std::size_t t) { return batch.trials[t]; }, policy,
        &registry, &timing);
    const auto t1 = Clock::now();
    std::ostringstream prom;
    ioguard::telemetry::write_prometheus(prom, registry);
    const auto t2 = Clock::now();

    const std::string prom_text = prom.str();
    for (std::size_t t = 0; t < n; ++t) {
      OpRecord rec;
      rec.index = index + t;
      rec.seconds = seconds[t];
      const auto outcome = result.outcomes[t];
      rec.ok = result.journal_error.ok() &&
               (outcome == ioguard::sys::TrialOutcome::kCompleted ||
                outcome == ioguard::sys::TrialOutcome::kRetried);
      rec.hash = batch_trial_hash(prom_text, batch.trials[t],
                                  result.results[t]);
      out.push_back(rec);
    }
    for (const auto& note : result.notes)
      std::cerr << "perfbench: fig7 batch: " << note << "\n";
    if (!result.journal_error.ok())
      std::cerr << "perfbench: journal: " << result.journal_error << "\n";

    if (tracer == nullptr) return;
    tracer->close(batch_span);
    tracer->record("telemetry.write_prometheus", ops.front(), t1, t2,
                   batch_span);
    tracer->sample("telemetry.export_ms", seconds_between(t1, t2) * 1e3);
    if (timing.wall_seconds > 0.0)
      tracer->sample("system.parallel_efficiency",
                     timing.trial_seconds_sum /
                         (timing.wall_seconds *
                          static_cast<double>(runner_->jobs())));
    for (std::size_t t = 0; t < n; ++t) {
      deltas[t].rebind_writer();
      pending_.push_back({TracedTrial{batch.trials[t], result.results[t],
                                      seconds[t], ops[t], batch_span},
                          batch.point_key, t, std::move(deltas[t])});
    }
  }

  void trace_extras(Tracer& tracer) override {
    if (pending_.empty()) return;
    if (!trace_journal_) trace_journal_ = open_journal("fig7-trace.journal");
    for (Pending& p : pending_) {
      trial_layer_samples(tracer, p.trial);
      tracer.sample("telemetry.jitter_samples",
                    static_cast<double>(jitter_samples(p.trial.result)));
      // The journal append each supervised trial pays, timed on its own.
      const auto t0 = Clock::now();
      const ioguard::Status appended = trace_journal_->append(
          p.point_key, static_cast<std::uint32_t>(p.index), false,
          p.trial.result, &p.delta);
      const auto t1 = Clock::now();
      if (!appended.ok())
        throw std::runtime_error("scratch journal: " + appended.to_string());
      tracer.record("system.CheckpointJournal::append", p.trial.op, t0, t1,
                    p.trial.span);
      tracer.sample("system.journal_append_us", seconds_between(t0, t1) * 1e6);
    }
    pending_.clear();
  }

  [[nodiscard]] std::vector<OpRecord> oracle() override {
    // A 1-worker merge of the same batches must reproduce the bytes of the
    // 2-worker runs: the first batch of each system.
    ioguard::sys::ParallelRunner sequential(1);
    std::vector<OpRecord> out;
    for (std::size_t b = 0; b < ioguard::sys::figure7_systems().size(); ++b) {
      const Batch& batch = batches_.at(b);
      ioguard::telemetry::MetricsRegistry registry;
      const ioguard::sys::BatchResult result = sequential.run_supervised(
          batch.trials.size(),
          [&batch](std::size_t t) { return batch.trials[t]; },
          ioguard::sys::SupervisionPolicy{}, &registry);
      std::ostringstream prom;
      ioguard::telemetry::write_prometheus(prom, registry);
      for (std::size_t t = 0; t < batch.trials.size(); ++t) {
        OpRecord rec;
        rec.index = b * kFig7TrialsPerBatch + t;
        rec.hash = batch_trial_hash(prom.str(), batch.trials[t],
                                    result.results[t]);
        out.push_back(rec);
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t op_list_fingerprint() const override {
    std::uint64_t h = fnv1a("fig7_sweep\n");
    for (const Batch& b : batches_)
      for (const TrialConfig& c : b.trials) h = fnv1a(config_key(c), h);
    return h;
  }

 private:
  struct Pending {
    TracedTrial trial;
    std::uint64_t point_key = 0;
    std::size_t index = 0;
    ioguard::telemetry::MetricsRegistry delta;
  };

  std::unique_ptr<ioguard::sys::CheckpointJournal> open_journal(
      const std::string& name) const {
    ioguard::sys::CheckpointMeta meta;
    meta.planned_trials = size();
    meta.config_echo = "perfbench fig7_sweep";
    meta.fingerprint = fnv1a(meta.config_echo);
    auto journal = ioguard::sys::CheckpointJournal::open(
        (std::filesystem::path(options_.scratch_dir) / name).string(), meta,
        /*resume=*/false);
    if (!journal.ok())
      throw std::runtime_error("cannot open journal: " +
                               journal.status().to_string());
    return std::move(journal).value();
  }

  WorkloadOptions options_;
  std::vector<Batch> batches_;
  std::unique_ptr<ioguard::sys::ParallelRunner> runner_;
  std::unique_ptr<ioguard::sys::CheckpointJournal> journal_;
  std::unique_ptr<ioguard::sys::CheckpointJournal> trace_journal_;
  std::vector<Pending> pending_;
};

}  // namespace

std::unique_ptr<Workload> make_ioguard_dense(const WorkloadOptions&) {
  return std::make_unique<IoguardDense>();
}

std::unique_ptr<Workload> make_fig7_sweep(const WorkloadOptions& options) {
  return std::make_unique<Fig7Sweep>(options);
}

}  // namespace perfbench
