// Command-line flag parsing for the example executables and benches.
//
//   --flag=value | --switch
// (No "--flag value" space form: it is ambiguous with a switch followed by
// a positional argument.) Non-flag arguments are collected in order.
//
// Two layers:
//   * CliArgs -- the raw parse (kept for library/test call sites).
//   * CliSpec -- flag *registration*: typed defaults and one-line
//     descriptions. parse() rejects unknown flags, validates types, injects
//     defaults and auto-answers --help, so no binary ever hand-rolls a usage
//     string again. Tools report errors via Status and map them to exit
//     codes in main() only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace ioguard {

class CliSpec;

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& flag) const;
  [[nodiscard]] std::int64_t get_int(const std::string& flag,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& flag,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& flag, bool fallback) const;

  // Single-argument accessors for spec-parsed args: CliSpec::parse() injects
  // each registered flag's default, so a registered flag is always present.
  // CHECK-fails on an unregistered name (a programming error, not user input).
  [[nodiscard]] std::string get(const std::string& flag) const;
  [[nodiscard]] std::int64_t get_int(const std::string& flag) const;
  [[nodiscard]] double get_double(const std::string& flag) const;
  /// True when the switch was passed (or given a true-ish value).
  [[nodiscard]] bool get_bool(const std::string& flag) const {
    return get_bool(flag, false);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// True when --help was passed to CliSpec::parse(); the caller prints
  /// CliSpec::help_text() and exits 0.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

 private:
  friend class CliSpec;

  std::string program_;
  std::map<std::string, std::string> flags_;  // name (no dashes) -> value
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

/// Flag registration + validation. Build one per binary:
///
///   CliSpec spec("run trials of one architecture");
///   spec.flag_int("vms", 8, "active VMs")
///       .flag_double("util", 0.9, "target utilization")
///       .flag_switch("verify", "statically verify artifacts first");
///   auto args = spec.parse(argc, argv);
///   if (!args.ok()) { std::cerr << args.status() << "\n"; return 2; }
///   if (args->help_requested()) { std::cout << spec.help_text(args->program()); return 0; }
class CliSpec {
 public:
  explicit CliSpec(std::string summary) : summary_(std::move(summary)) {}

  /// Registers a string flag with a default value.
  CliSpec& flag(const std::string& name, const std::string& fallback,
                const std::string& help);
  /// Registers an integer flag with a default value.
  CliSpec& flag_int(const std::string& name, std::int64_t fallback,
                    const std::string& help);
  /// Registers a floating-point flag with a default value.
  CliSpec& flag_double(const std::string& name, double fallback,
                       const std::string& help);
  /// Registers a boolean switch (absent => false).
  CliSpec& flag_switch(const std::string& name, const std::string& help);
  /// Documents a positional argument (parse() rejects positionals unless at
  /// least one is declared).
  CliSpec& positional(const std::string& name, const std::string& help);

  /// The auto-generated usage text.
  [[nodiscard]] std::string help_text(const std::string& program) const;

  /// Parses and validates argv against the registered flags: unknown flags
  /// are errors; typed flags must parse; defaults are injected so
  /// single-argument getters always succeed. `--help` short-circuits
  /// validation and sets help_requested() instead.
  [[nodiscard]] StatusOr<CliArgs> parse(int argc,
                                        const char* const* argv) const;

  /// Bench form: removes every *registered* flag from argv in place (so a
  /// downstream parser with its own flag set -- Google Benchmark -- never
  /// sees them) and validates only what was removed. Unknown flags are left
  /// in argv untouched.
  [[nodiscard]] StatusOr<CliArgs> extract(int* argc, char** argv) const;

 private:
  enum class Type : std::uint8_t { kString, kInt, kDouble, kSwitch };
  struct Flag {
    std::string name;
    std::string help;
    Type type = Type::kString;
    std::string fallback;  ///< printable default ("" for a switch)
  };
  struct Positional {
    std::string name;
    std::string help;
  };

  [[nodiscard]] const Flag* find(const std::string& name) const;
  [[nodiscard]] Status validate(CliArgs& args) const;

  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
};

}  // namespace ioguard
