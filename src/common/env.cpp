#include "common/env.hpp"

#include <cstdlib>

// getenv() is not thread-safe against a concurrent setenv(); the tree never
// calls setenv, and these lookups happen during single-threaded driver
// startup (jobs/log/bench knobs), so each call site carries a reviewed
// NOLINT(concurrency-mt-unsafe).

namespace ioguard {

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- startup-only, no setenv in tree
  const char* v = std::getenv(name.c_str());
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return parsed;
}

std::string env_string(const std::string& name, const std::string& fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- startup-only, no setenv in tree
  const char* v = std::getenv(name.c_str());
  return (v && *v) ? std::string(v) : fallback;
}

}  // namespace ioguard
