#include "bench.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t Tracer::new_op() {
  const ioguard::MutexLock lock(mutex_);
  return next_op_++;
}

std::uint32_t Tracer::thread_id() {
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == self) return static_cast<std::uint32_t>(i);
  threads_.push_back(self);
  return static_cast<std::uint32_t>(threads_.size() - 1);
}

int Tracer::record(const char* name, std::uint64_t op, Clock::time_point start,
                   Clock::time_point end, int parent) {
  const ioguard::MutexLock lock(mutex_);
  spans_.push_back({name, start, end, parent, op, thread_id()});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::open(const char* name, std::uint64_t op) {
  const auto now = Clock::now();
  return record(name, op, now, now);
}

void Tracer::close(int span) {
  const auto now = Clock::now();
  const ioguard::MutexLock lock(mutex_);
  spans_.at(static_cast<std::size_t>(span)).end = now;
}

void Tracer::sample(const std::string& metric, double value) {
  const ioguard::MutexLock lock(mutex_);
  samples_[metric].push_back(value);
}

std::vector<Tracer::Span> Tracer::spans() const {
  const ioguard::MutexLock lock(mutex_);
  return spans_;
}

std::map<std::string, std::vector<double>> Tracer::samples() const {
  const ioguard::MutexLock lock(mutex_);
  return samples_;
}

bool write_trace_events(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        Clock::time_point epoch) {
  std::ofstream os(path);
  if (!os) return false;
  const auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Tracer* tracer : tracers) {
    const std::vector<Tracer::Span> spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      os << (first ? "\n" : ",\n");
      first = false;
      os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":"
         << tracer->pid() << ",\"tid\":" << s.thread
         << ",\"ts\":" << num(us(s.start))
         << ",\"dur\":" << num(us(s.end) - us(s.start))
         << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
         << ",\"parent\":" << s.parent << "}}";
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os.flush());
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "ioguard_dense") return make_ioguard_dense(options);
  if (name == "fig7_sweep") return make_fig7_sweep(options);
  if (name == "admit_churn") return make_admit_churn(options);
  if (name == "cosim_mesh") return make_cosim_mesh(options);
  return nullptr;
}

}  // namespace perfbench
