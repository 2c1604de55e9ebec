// ioguard_perfbench: closed-loop host-time benchmark of the I/O-GUARD
// simulator. One process runs one workload:
//
//   ioguard_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//       [--expect-digest=HEX] [--trace-out=FILE] [--scratch=DIR]
//       [--op-list]
//
// --trace=0 runs closed-loop steps, each on the next CPU, for S seconds and
// until every step of the op list ran five times, takes the timings from
// each step's and op's fastest execution, sets the workload up five times
// (the median is setup_s), checks every op's result bytes and prints the
// end-to-end metrics. --trace=1 alternates untraced and traced stretches of
// the same loop, records spans around the calls into each layer, writes
// them to --trace-out and prints the per-layer metrics.
// The last line of stdout is one JSON object (see README.md).
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/stats.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string trace_out;
  WorkloadOptions options;
  bool op_list = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.options.scratch_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--op-list") {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      value = argv[++i];
    }
    if (arg == "--workload") a.workload = value;
    else if (arg == "--seed") a.seed = std::stoull(value);
    else if (arg == "--seconds") a.seconds = std::stod(value);
    else if (arg == "--trace") a.trace = std::stoi(value) != 0;
    else if (arg == "--expect-digest") a.expect_digest = value;
    else if (arg == "--trace-out") a.trace_out = value;
    else if (arg == "--scratch") a.options.scratch_dir = value;
    else if (arg == "--op-list") a.op_list = true;
    else throw std::invalid_argument("unknown flag " + arg);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// First result hash of every op in the op list, the ops whose later
/// executions or oracle re-runs disagreed with it, and per op how often the
/// measured phases ran it and how often that failed at run time. Its size
/// follows the op list, not the run's length, so the benchmark's own
/// bookkeeping stays out of peak_rss_mb.
class Ledger {
 public:
  explicit Ledger(std::size_t n)
      : first_(n), seen_(n, false), bad_(n, false), runs_(n, 0), fails_(n, 0) {}

  void observe(const OpRecord& r, bool measured) {
    if (!r.ok) ++runtime_failures_;
    if (measured) {
      ++runs_.at(r.index);
      if (!r.ok) ++fails_[r.index];
    }
    if (!seen_.at(r.index)) {
      seen_[r.index] = true;
      first_[r.index] = r.hash;
    } else if (first_[r.index] != r.hash) {
      mark_bad(r.index, "differs from its first execution");
    }
  }
  void check_oracle(const OpRecord& r) {
    if (!r.ok || !seen_.at(r.index) || first_[r.index] != r.hash)
      mark_bad(r.index, "differs from the oracle");
  }
  void mark_all_bad() { std::fill(bad_.begin(), bad_.end(), true); }

  [[nodiscard]] bool complete() const {
    return std::all_of(seen_.begin(), seen_.end(), [](bool b) { return b; });
  }
  [[nodiscard]] bool any_bad() const {
    return std::any_of(bad_.begin(), bad_.end(), [](bool b) { return b; });
  }
  [[nodiscard]] std::size_t runtime_failures() const {
    return runtime_failures_;
  }
  /// Measured executions.
  [[nodiscard]] std::size_t attempted() const {
    std::size_t n = 0;
    for (const std::uint32_t runs : runs_) n += runs;
    return n;
  }
  /// Measured executions that failed at run time or whose op failed the
  /// output check.
  [[nodiscard]] std::size_t failed() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < runs_.size(); ++i)
      n += bad_[i] ? runs_[i] : fails_[i];
    return n;
  }
  /// FNV-1a over the per-op hashes in op-list order.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = fnv1a({});
    for (const std::uint64_t v : first_) h = fnv1a(hex64(v), h);
    return h;
  }

 private:
  void mark_bad(std::size_t i, const char* why) {
    if (!bad_[i]) std::cerr << "perfbench: op " << i << " " << why << "\n";
    bad_[i] = true;
  }

  std::vector<std::uint64_t> first_;
  std::vector<bool> seen_;
  std::vector<bool> bad_;
  std::vector<std::uint32_t> runs_;
  std::vector<std::uint32_t> fails_;
  std::size_t runtime_failures_ = 0;
};

/// Moves every thread of the process to the next CPUs of the set it may run
/// on, one step at a time. Other tenants of the host slow each CPU by up to
/// 1.6x in spells of one to ten seconds, independently of the other CPUs
/// (seen inside the VM neither as steal time nor as preemption); left alone,
/// the scheduler keeps a busy thread on one CPU, so a whole run could sit
/// in one such spell. Moving each step to another CPU lets every step run
/// on several CPUs, and its fastest execution then finds one that is quiet.
class CpuRotation {
 public:
  /// `width`: CPUs a step uses (the workload's busy threads).
  explicit CpuRotation(std::size_t width) : width_(width) {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }

  /// Moves to the next `width` CPUs (no-op with no more CPUs than that,
  /// and after release()).
  void next() {
    if (released_ || cpus_.size() <= width_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t k = 0; k < width_; ++k)
      CPU_SET(cpus_[(next_ + k) % cpus_.size()], &set);
    next_ = (next_ + 1) % cpus_.size();
    if (!apply(set)) {
      // Still a valid measurement, on whatever CPUs the scheduler picks.
      std::cerr << "perfbench: cannot move threads between CPUs\n";
      (void)apply(allowed_);
      released_ = true;
    }
  }
  /// Makes the next move go to the `i`-th CPU (mod their number).
  void seek(std::size_t i) { next_ = i % cpus_.size(); }
  /// Lets every thread run on every allowed CPU again, for good.
  void release() {
    if (!released_ && cpus_.size() > width_ && !apply(allowed_))
      throw std::runtime_error("cannot restore the CPU affinity");
    released_ = true;
  }

 private:
  static bool apply(const cpu_set_t& set) {
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      const pid_t tid = std::stoi(task.path().filename().string());
      // A thread that has just exited (ESRCH) no longer needs a CPU.
      if (sched_setaffinity(tid, sizeof set, &set) != 0 && errno != ESRCH)
        return false;
    }
    return true;
  }

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t next_ = 0;
  bool released_ = false;
};

/// Each step's and each op's fastest execution. Every step of the op list
/// runs several times in a run, on different CPUs; the fastest execution is
/// the one the host disturbed least, so timings taken from it repeat across
/// runs where means and percentiles over all executions follow the host's
/// spells. Its size follows the op list, not the run's length.
class BestTimes {
 public:
  explicit BestTimes(std::size_t ops)
      : op_seconds_(ops, 0.0), op_runs_(ops, 0) {}

  void add(std::size_t first_op, double wall,
           const std::vector<OpRecord>& ops) {
    Step& s = steps_[first_op];
    s.wall = s.runs == 0 ? wall : std::min(s.wall, wall);
    ++s.runs;
    for (const OpRecord& r : ops) {
      double& best = op_seconds_.at(r.index);
      best = op_runs_[r.index]++ == 0 ? r.seconds : std::min(best, r.seconds);
    }
  }

  /// Distinct steps seen (one pass of the op list once it wrapped).
  [[nodiscard]] std::size_t steps() const { return steps_.size(); }
  /// Executions of the least-run op (0 while some op has not run).
  [[nodiscard]] std::uint32_t min_runs() const {
    return *std::min_element(op_runs_.begin(), op_runs_.end());
  }
  /// Sum of the fastest wall times of the steps `other` also ran, and of
  /// other's; the traced run's overhead compares like with like.
  [[nodiscard]] std::pair<double, double> shared_walls(
      const BestTimes& other) const {
    double mine = 0.0, theirs = 0.0;
    for (const auto& [first, s] : steps_) {
      const auto it = other.steps_.find(first);
      if (it == other.steps_.end()) continue;
      mine += s.wall;
      theirs += it->second.wall;
    }
    return {mine, theirs};
  }

  /// Sum of the steps' fastest wall times (one pass of the op list).
  [[nodiscard]] double pass_seconds() const {
    double sum = 0.0;
    for (const auto& [first, s] : steps_) sum += s.wall;
    return sum;
  }
  /// Each op's fastest latency, in ms.
  [[nodiscard]] ioguard::SampleSet op_ms() const {
    ioguard::SampleSet out;
    for (const double v : op_seconds_) out.add(v * 1e3);
    return out;
  }

 private:
  struct Step {
    std::uint32_t runs = 0;
    double wall = 0.0;
  };
  std::map<std::size_t, Step> steps_;  ///< by the step's first op
  std::vector<double> op_seconds_;
  std::vector<std::uint32_t> op_runs_;
};

/// What a phase of the loop records besides its length.
struct Recording {
  bool measured = false;  ///< its ops count toward attempted and failed
  BestTimes* best = nullptr;
};

/// The closed loop over one workload's op list.
class Loop {
 public:
  /// `rotation` (may be null) moves the loop to other CPUs before a step.
  Loop(Workload& w, Ledger& ledger, CpuRotation* rotation = nullptr)
      : w_(w), ledger_(ledger), rotation_(rotation) {}

  /// Runs steps until `seconds` of step time (untimed preparation
  /// excluded) are done.
  void run_for(double seconds, Tracer* tracer, const Recording& record = {}) {
    Phase p;
    while (p.wall < seconds) step(tracer, record, p);
  }
  /// Runs steps until `ops` more ops are done.
  void run_ops(std::size_t ops, Tracer* tracer, const Recording& record = {}) {
    Phase p;
    while (p.ops < ops) step(tracer, record, p);
  }
  /// Runs steps until every op of the op list has run `runs` times.
  void run_until(std::uint32_t runs, Tracer* tracer, const Recording& record) {
    Phase p;
    while (record.best->min_runs() < runs) step(tracer, record, p);
  }

 private:
  struct Phase {
    std::size_t ops = 0;
    double wall = 0.0;
  };

  void step(Tracer* tracer, const Recording& record, Phase& p) {
    // A move costs the caches; steps shorter than this share a CPU.
    constexpr double kMoveEverySeconds = 0.05;
    if (rotation_ != nullptr &&
        (cursor_ == 0 || since_move_ >= kMoveEverySeconds)) {
      // Each pass starts one CPU further on than the last, so across passes
      // a step meets every CPU in turn, whatever the op list's length.
      if (cursor_ == 0) rotation_->seek(passes_++);
      rotation_->next();
      since_move_ = 0.0;
    }
    w_.before_step(cursor_);
    buffer_.clear();
    const auto t0 = Clock::now();
    w_.step(cursor_, tracer, buffer_);
    const double wall = seconds_between(t0, Clock::now());
    p.wall += wall;
    since_move_ += wall;
    if (buffer_.empty()) throw std::logic_error("a step ran no op");
    if (record.best != nullptr) record.best->add(cursor_, wall, buffer_);
    if (tracer != nullptr) w_.trace_extras(*tracer);
    for (const OpRecord& r : buffer_) ledger_.observe(r, record.measured);
    p.ops += buffer_.size();
    cursor_ = (cursor_ + buffer_.size()) % w_.size();
  }

  Workload& w_;
  Ledger& ledger_;
  CpuRotation* rotation_;
  double since_move_ = 0.0;  ///< step time since the last move
  std::size_t passes_ = 0;   ///< passes over the op list begun
  std::size_t cursor_ = 0;
  std::vector<OpRecord> buffer_;
};

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* home;  ///< the workload on which the layer does its work
};

/// Must match BENCHMARK.json's per_layer list (run.py checks the output).
constexpr LayerMetric kLayerMetrics[] = {
    {"workload.gen_ms", "ms", "ioguard_dense"},
    {"workload.jobs", "count", "ioguard_dense"},
    {"core.design_ms", "ms", "ioguard_dense"},
    {"core.busy_frac", "ratio", "ioguard_dense"},
    {"system.loop_ns_per_slot.ioguard", "ns", "ioguard_dense"},
    {"system.loop_ns_per_slot.baseline", "ns", "fig7_sweep"},
    {"system.parallel_efficiency", "ratio", "fig7_sweep"},
    {"system.journal_append_us", "us", "fig7_sweep"},
    {"telemetry.export_ms", "ms", "fig7_sweep"},
    {"telemetry.jitter_samples", "count", "fig7_sweep"},
    {"service.decode_us", "us", "admit_churn"},
    {"service.handle_us", "us", "admit_churn"},
    {"service.encode_us", "us", "admit_churn"},
    {"service.local_hit_ratio", "ratio", "admit_churn"},
    {"service.global_hit_ratio", "ratio", "admit_churn"},
    {"service.synth_hit_ratio", "ratio", "admit_churn"},
    {"service.rejected", "count/1k", "admit_churn"},
    {"noc.ns_per_cycle", "ns", "cosim_mesh"},
    {"noc.packets", "count", "cosim_mesh"},
};

/// Traced ops a slice runs, after its untraced warm-up, for the layers the
/// traced workload never reaches.
std::size_t slice_ops(const std::string& home) {
  if (home == "ioguard_dense") return 4;
  if (home == "fig7_sweep") return 20;  // one batch of each system at 40 %
  if (home == "admit_churn") return 2000;
  return 8;                             // cosim_mesh: two per architecture
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

/// VmHWM of this process (getrusage's ru_maxrss is kept across execve, so
/// it would report the launching process's peak when that was larger).
double hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Median, over one pass of steps after the timed phase (at least three
/// steps; the same loop and long-lived objects, run as the timed phase runs
/// them), of the resident high-water mark during the step. Before each
/// step the heap is trimmed and the mark reset to the resident set, which
/// still holds everything live (the runner, journal, engine and its verdict
/// caches, and any leak), so the figure is that plus what one step needs. A
/// whole pass, because fig7_sweep's batches differ in memory by system and
/// utilization: the figure must not depend on where the timed phase stopped.
double op_peak_rss_mb(Loop& loop, std::size_t steps) {
  std::vector<double> peaks;
  for (std::size_t i = 0; i < std::max<std::size_t>(steps, 3); ++i) {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // reset VmHWM to VmRSS
    clear.close();
    if (!clear) throw std::runtime_error("cannot reset VmHWM");
    loop.run_ops(1, nullptr);
    peaks.push_back(hwm_mb());
  }
  return median(peaks);
}

/// Executions of every op a timed phase needs at least, so that each op's
/// fastest one found a quiet CPU (across passes a step meets the CPUs in
/// turn; with four CPUs, five executions reach every one of them).
constexpr std::uint32_t kMinRuns = 5;

int run(const Args& a) {
  const auto epoch = Clock::now();
  std::unique_ptr<Workload> w = make_workload(a.workload, a.options);
  if (!w) throw std::invalid_argument("unknown workload " + a.workload);
  if (a.op_list) {
    w->setup(a.seed);
    std::cout << "op_list " << a.workload << " " << a.seed << " "
              << hex64(w->op_list_fingerprint()) << std::endl;
    return 0;
  }
  CpuRotation rotation(w->threads());

  // A set-up: the op list, the long-lived objects and the untimed warm-up
  // over the head of the op list, each on the next CPU. Every set-up shares
  // the ledger, so each must reproduce the result bytes of the first.
  std::unique_ptr<Ledger> ledger;
  const auto set_up = [&](Workload& inst, std::unique_ptr<Loop>& inst_loop,
                          CpuRotation* loop_rotation) {
    rotation.next();
    const auto t0 = Clock::now();
    inst.setup(a.seed);
    if (!ledger) ledger = std::make_unique<Ledger>(inst.size());
    inst_loop = std::make_unique<Loop>(inst, *ledger, loop_rotation);
    inst_loop->run_ops(inst.warmup_ops(), nullptr);
    return seconds_between(t0, Clock::now());
  };
  std::unique_ptr<Loop> loop;
  std::vector<double> setup_seconds{set_up(*w, loop, &rotation)};

  std::vector<Metric> metrics;
  std::vector<std::unique_ptr<Tracer>> tracers;
  if (!a.trace) {
    BestTimes best(w->size());
    const Recording timed{true, &best};
    loop->run_for(a.seconds, nullptr, timed);
    loop->run_until(kMinRuns, nullptr, timed);
    const double rss_mb = op_peak_rss_mb(*loop, best.steps());
    // setup_s is the median of five set-ups, each on the next CPU: the one
    // above, which built what the run uses, and four throwaway copies. The
    // copies come after the memory steps: threads they start and end leave
    // allocator arenas behind, which moved peak_rss_mb by up to 20 %.
    for (int c = 0; c < 4; ++c) {
      WorkloadOptions options = a.options;
      options.scratch_dir = (std::filesystem::path(a.options.scratch_dir) /
                             ("setup" + std::to_string(c)))
                                .string();
      std::filesystem::create_directories(options.scratch_dir);
      std::unique_ptr<Workload> copy = make_workload(a.workload, options);
      std::unique_ptr<Loop> copy_loop;
      setup_seconds.push_back(set_up(*copy, copy_loop, nullptr));
    }
    rotation.release();
    // The tail is the highest percentile with ten samples beyond it in the
    // op list: p99 over admit_churn's 4,800 requests, p90 elsewhere.
    ioguard::SampleSet op_ms = best.op_ms();
    const double tail_p = op_ms.count() >= 1000 ? 99 : 90;
    metrics = {
        {"setup_s", median(setup_seconds), "s"},
        {"ops_per_s", static_cast<double>(w->size()) / best.pass_seconds(),
         "1/s"},
        {"op_ms_p50", op_ms.percentile(50), "ms"},
        {"op_ms_p90", op_ms.percentile(90), "ms"},
        {"op_ms_tail", op_ms.percentile(tail_p), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // Untraced and traced stretches alternate, so machine drift hits both.
    tracers.push_back(std::make_unique<Tracer>(1));
    Tracer& tracer = *tracers.back();
    constexpr int kStretches = 4;
    const double stretch = a.seconds / (2 * kStretches);
    BestTimes plain_steps(w->size()), traced_steps(w->size());
    for (int i = 0; i < kStretches; ++i) {
      loop->run_for(stretch, nullptr, {true, &plain_steps});
      loop->run_for(stretch, &tracer, {true, &traced_steps});
    }
    rotation.release();
    w->finish_trace(tracer);
    std::map<std::string, std::vector<double>> samples = tracer.samples();

    // Layers this workload never reaches are measured on a short traced
    // slice of the workload they lead (after that workload's own untraced
    // warm-up), so every per-layer metric is a measurement on every traced
    // run. A slice supplies only the metrics its workload leads.
    std::set<std::string> homes;
    for (const LayerMetric& m : kLayerMetrics)
      if (samples.count(m.name) == 0) homes.insert(m.home);
    for (const std::string& home : homes) {
      tracers.push_back(
          std::make_unique<Tracer>(static_cast<int>(tracers.size()) + 1));
      Tracer& slice_tracer = *tracers.back();
      auto slice = make_workload(home, a.options);
      slice->setup(a.seed);
      Ledger slice_ledger(slice->size());
      Loop slice_loop(*slice, slice_ledger);
      slice_loop.run_ops(slice->warmup_ops(), nullptr);
      slice_loop.run_ops(slice_ops(home), &slice_tracer);
      slice->finish_trace(slice_tracer);
      const auto slice_samples = slice_tracer.samples();
      for (const LayerMetric& m : kLayerMetrics)
        if (m.home == home && samples.count(m.name) == 0 &&
            slice_samples.count(m.name) != 0)
          samples[m.name] = slice_samples.at(m.name);
    }
    for (const LayerMetric& m : kLayerMetrics) {
      if (samples.count(m.name) == 0)
        throw std::logic_error(std::string("no samples for ") + m.name);
      metrics.push_back({m.name, median(samples[m.name]), m.unit});
    }
    // Steps that ran both ways compare like with like: op costs differ
    // across the op list (fig7_sweep: 30 ms baseline vs 130 ms I/O-GUARD
    // trials), so stretch-wide throughput would mostly compare op mixes.
    // Each side's fastest executions, as in the untraced run.
    const auto [traced_s, plain_s] = traced_steps.shared_walls(plain_steps);
    if (plain_s == 0.0)
      throw std::runtime_error("no step ran both traced and untraced");
    metrics.push_back({"trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0),
                       "%"});
  }

  // Output check: finish one full pass so every op has result bytes, re-run
  // a sample through the in-tree oracle, then compare the digest.
  while (!ledger->complete()) loop->run_ops(1, nullptr);
  for (const OpRecord& r : w->oracle()) ledger->check_oracle(r);
  const std::uint64_t digest = ledger->digest();
  bool digest_ok = true;
  if (!a.expect_digest.empty() && a.expect_digest != hex64(digest)) {
    std::cerr << "perfbench: digest " << hex64(digest) << " != expected "
              << a.expect_digest << "\n";
    digest_ok = false;
    ledger->mark_all_bad();
  }
  const bool correct = digest_ok && !ledger->any_bad() &&
                       ledger->runtime_failures() == 0;

  if (a.trace && !a.trace_out.empty()) {
    std::vector<const Tracer*> all;
    for (const auto& t : tracers) all.push_back(t.get());
    if (!write_trace_events(a.trace_out, all, epoch))
      throw std::runtime_error("cannot write " + a.trace_out);
  }
  std::cout << "perfbench: workload=" << a.workload << " seed=" << a.seed
            << " digest=" << hex64(digest) << " ops_in_list=" << w->size()
            << " measured_ops=" << ledger->attempted() << std::endl;
  print_result(correct, ledger->attempted(), ledger->failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ioguard_perfbench: " << e.what() << "\n";
    return 2;
  }
}
