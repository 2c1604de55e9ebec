#include "common/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace ioguard {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

bool parses_as_int(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  (void)std::strtoll(s.c_str(), &end, 10);
  return end && *end == '\0';
}

bool parses_as_double(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  return end && *end == '\0';
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags_[arg] = "";  // boolean switch
    }
  }
}

bool CliArgs::has(const std::string& flag) const {
  return flags_.count(flag) != 0;
}

std::int64_t CliArgs::get_int(const std::string& flag,
                              std::int64_t fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? v : fallback;
}

double CliArgs::get_double(const std::string& flag, double fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? v : fallback;
}

bool CliArgs::get_bool(const std::string& flag, bool fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on")
    return true;
  return false;
}

std::string CliArgs::get(const std::string& flag) const {
  const auto it = flags_.find(flag);
  IOGUARD_CHECK_MSG(it != flags_.end(), "unregistered flag --" + flag);
  return it->second;
}

std::int64_t CliArgs::get_int(const std::string& flag) const {
  IOGUARD_CHECK_MSG(has(flag), "unregistered flag --" + flag);
  return get_int(flag, 0);
}

double CliArgs::get_double(const std::string& flag) const {
  IOGUARD_CHECK_MSG(has(flag), "unregistered flag --" + flag);
  return get_double(flag, 0.0);
}

CliSpec& CliSpec::flag(const std::string& name, const std::string& fallback,
                       const std::string& help) {
  flags_.push_back(Flag{name, help, Type::kString, fallback});
  return *this;
}

CliSpec& CliSpec::flag_int(const std::string& name, std::int64_t fallback,
                           const std::string& help) {
  flags_.push_back(Flag{name, help, Type::kInt, std::to_string(fallback)});
  return *this;
}

CliSpec& CliSpec::flag_double(const std::string& name, double fallback,
                              const std::string& help) {
  std::ostringstream os;
  os << fallback;
  flags_.push_back(Flag{name, help, Type::kDouble, os.str()});
  return *this;
}

CliSpec& CliSpec::flag_switch(const std::string& name,
                              const std::string& help) {
  flags_.push_back(Flag{name, help, Type::kSwitch, ""});
  return *this;
}

CliSpec& CliSpec::positional(const std::string& name, const std::string& help) {
  positionals_.push_back(Positional{name, help});
  return *this;
}

const CliSpec::Flag* CliSpec::find(const std::string& name) const {
  for (const auto& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

std::string CliSpec::help_text(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]";
  for (const auto& p : positionals_) os << " [" << p.name << "]";
  os << "\n";
  if (!summary_.empty()) os << summary_ << "\n";
  os << "\n";

  // Left column: "--name=VALUE" / "--switch"; pad to the widest entry.
  auto left_of = [](const Flag& f) {
    std::string s = "--" + f.name;
    if (f.type != Type::kSwitch) s += "=VALUE";
    return s;
  };
  std::size_t width = std::string("--help").size();
  for (const auto& f : flags_) width = std::max(width, left_of(f).size());
  for (const auto& p : positionals_)
    width = std::max(width, p.name.size() + 2);

  for (const auto& f : flags_) {
    std::string left = left_of(f);
    os << "  " << left << std::string(width - left.size() + 2, ' ') << f.help;
    if (f.type != Type::kSwitch && !f.fallback.empty())
      os << " (default: " << f.fallback << ")";
    os << "\n";
  }
  os << "  --help" << std::string(width - 6 + 2, ' ')
     << "print this help and exit\n";
  for (const auto& p : positionals_)
    os << "  " << p.name << std::string(width - p.name.size() + 2, ' ')
       << p.help << "\n";
  return os.str();
}

Status CliSpec::validate(CliArgs& args) const {
  if (args.has("help")) {
    args.help_requested_ = true;
    return OkStatus();  // short-circuit: help trumps every other check
  }
  for (const auto& [name, value] : args.flags_) {
    const Flag* f = find(name);
    if (f == nullptr)
      return InvalidArgumentError("unknown flag --" + name +
                                  " (see --help for the flag list)");
    switch (f->type) {
      case Type::kInt:
        if (!parses_as_int(value))
          return InvalidArgumentError("flag --" + name +
                                      " expects an integer, got '" + value +
                                      "'");
        break;
      case Type::kDouble:
        if (!parses_as_double(value))
          return InvalidArgumentError("flag --" + name +
                                      " expects a number, got '" + value +
                                      "'");
        break;
      case Type::kString:
      case Type::kSwitch:
        break;
    }
  }
  for (const auto& f : flags_) {
    if (f.type != Type::kSwitch)
      args.flags_.emplace(f.name, f.fallback);  // inject default if absent
  }
  if (positionals_.empty() && !args.positional().empty())
    return InvalidArgumentError("unexpected positional argument '" +
                                args.positional().front() + "'");
  return OkStatus();
}

StatusOr<CliArgs> CliSpec::parse(int argc, const char* const* argv) const {
  CliArgs args(argc, argv);
  Status st = validate(args);
  if (!st.ok()) return st;
  return args;
}

StatusOr<CliArgs> CliSpec::extract(int* argc, char** argv) const {
  // Pull registered flags (and --help) out of argv; leave the rest -- the
  // downstream parser owns them.
  std::vector<const char*> ours;
  if (*argc > 0) ours.push_back(argv[0]);
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    bool take = false;
    if (is_flag(arg)) {
      const auto eq = arg.find('=');
      const std::string name =
          arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
      take = name == "help" || find(name) != nullptr;
    }
    if (take) {
      ours.push_back(argv[i]);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  CliArgs args(static_cast<int>(ours.size()), ours.data());
  Status st = validate(args);
  if (!st.ok()) return st;
  return args;
}

}  // namespace ioguard
