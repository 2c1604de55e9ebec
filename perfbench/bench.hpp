// Shared pieces of the host-time benchmark program: the workload interface
// the orchestrator drives, op records, and the span tracer of the traced
// run. See README.md for the workloads, metrics and output check.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// 64-bit FNV-1a, continued from `h` (pass the default to start a digest).
[[nodiscard]] inline std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::string hex64(std::uint64_t v);

/// One executed op: where it sits in the op list, how long it took, whether
/// it failed at run time (Status error, abandoned or skipped trial), and the
/// FNV-1a hash of its result bytes.
struct OpRecord {
  std::size_t index = 0;
  double seconds = 0.0;
  bool ok = true;
  std::uint64_t hash = 0;
};

/// Spans and per-layer samples of a traced run. Spans stay in memory and
/// are written out once, as trace-event JSON, when the run ends. Thread-safe:
/// fig7_sweep records trial spans from the runner's worker threads.
class Tracer {
 public:
  explicit Tracer(int pid) : pid_(pid) {}

  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;          ///< index into spans(), -1 for a root span
    std::uint64_t op = 0;     ///< shared by every span of one op
    std::uint32_t thread = 0; ///< small dense id of the recording thread
  };

  /// A fresh op id: every span of one op carries the same id.
  std::uint64_t new_op();

  /// Records a finished span and returns its index (for children).
  int record(const char* name, std::uint64_t op, Clock::time_point start,
             Clock::time_point end, int parent = -1);
  /// Reserves a root span whose end is filled in by close() (parents that
  /// must exist before their children finish).
  int open(const char* name, std::uint64_t op);
  void close(int span);

  /// One per-op sample of a per-layer metric; the run reports the median.
  void sample(const std::string& metric, double value);

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::string, std::vector<double>> samples() const;

 private:
  std::uint32_t thread_id() IOGUARD_REQUIRES(mutex_);

  int pid_;
  mutable ioguard::Mutex mutex_;
  std::uint64_t next_op_ IOGUARD_GUARDED_BY(mutex_) = 0;
  std::vector<Span> spans_ IOGUARD_GUARDED_BY(mutex_);
  std::map<std::string, std::vector<double>> samples_
      IOGUARD_GUARDED_BY(mutex_);
  /// Position = dense thread id.
  std::vector<std::thread::id> threads_ IOGUARD_GUARDED_BY(mutex_);
};

/// Writes every tracer's spans as one Chrome/Perfetto trace-event document
/// (one pid per tracer, timestamps in microseconds from `epoch`).
bool write_trace_events(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        Clock::time_point epoch);

/// One benchmark workload: an op list generated from the seed, the
/// long-lived objects that serve it, and a way to run its ops.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the op list from `seed` and builds the long-lived objects.
  virtual void setup(std::uint64_t seed) = 0;
  /// Length of the op list.
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Ops run by the untimed warm-up at the head of the op list.
  [[nodiscard]] virtual std::size_t warmup_ops() const = 0;
  /// Threads a step keeps busy (the CPUs it is moved across together).
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
  /// Untimed preparation before the step that starts at `index` (e.g. a
  /// fresh admission engine for each pass).
  virtual void before_step(std::size_t index) { (void)index; }
  /// Runs the step starting at op `index` (one op, one batch of trials or
  /// one pass of requests) and appends one record per op. `tracer` is null
  /// outside traced runs.
  virtual void step(std::size_t index, Tracer* tracer,
                    std::vector<OpRecord>& out) = 0;
  /// Traced runs only, outside the timed window: the extra layer calls of
  /// the ops of the step just run (trace generation, design, journaling).
  virtual void trace_extras(Tracer& tracer) { (void)tracer; }
  /// Traced runs only: samples aggregated over the whole traced phase.
  virtual void finish_trace(Tracer& tracer) { (void)tracer; }
  /// Re-runs a sample of ops through the in-tree oracle and returns their
  /// records; their hashes must equal those of the measured executions.
  [[nodiscard]] virtual std::vector<OpRecord> oracle() = 0;
  /// FNV-1a over every op's inputs (self-test: same seed, same op list).
  [[nodiscard]] virtual std::uint64_t op_list_fingerprint() const = 0;
};

struct WorkloadOptions {
  std::string scratch_dir;  ///< per-run directory for journals
};

/// The workload of this name, or null.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

std::unique_ptr<Workload> make_ioguard_dense(const WorkloadOptions& options);
std::unique_ptr<Workload> make_fig7_sweep(const WorkloadOptions& options);
std::unique_ptr<Workload> make_admit_churn(const WorkloadOptions& options);
std::unique_ptr<Workload> make_cosim_mesh(const WorkloadOptions& options);

}  // namespace perfbench
