// Environment-variable knobs: the bench harnesses' trial counts and seed
// (IOGUARD_TRIALS, IOGUARD_MIN_JOBS, IOGUARD_SEED), their report directory
// (IOGUARD_BENCH_OUT) and the default worker count (IOGUARD_JOBS).
#pragma once

#include <cstdint>
#include <string>

namespace ioguard {

/// Reads an integer env var; returns `fallback` when unset or malformed.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Reads a string env var; returns `fallback` when unset.
std::string env_string(const std::string& name, const std::string& fallback);

}  // namespace ioguard
