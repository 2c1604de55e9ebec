#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace ioguard::faults {

namespace {

struct Canned {
  const char* name;
  const char* spec;  ///< parsed lazily via FaultPlan::parse
};

// Canned plans, referenced by CI's fault matrix and the README quickstart.
// "none" is special-cased to the empty plan (== fault-free baseline).
constexpr Canned kCanned[] = {
    {"none", ""},
    {"device-stall", "stall:rate=0.002,param=12"},
    {"lossy-frames", "drop:rate=0.01;corrupt:rate=0.005"},
    {"noc-flaky", "flit:rate=0.001"},
    {"translator-jitter", "overrun:rate=0.01,param=25"},
    {"mixed",
     "seed=3;stall:rate=0.001,param=10;drop:rate=0.005;flit:rate=0.0005;"
     "overrun:rate=0.005;irq:rate=0.002"},
};

StatusOr<FaultKind> kind_from_token(std::string_view token) {
  for (FaultKind k : all_fault_kinds())
    if (token == spec_token(k)) return k;
  return InvalidArgumentError("unknown fault kind '" + std::string(token) +
                              "' (want stall|drop|corrupt|flit|overrun|irq)");
}

StatusOr<double> parse_rate(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end == nullptr || *end != '\0')
    return InvalidArgumentError("bad fault rate '" + s + "'");
  if (v < 0.0 || v > 1.0)
    return OutOfRangeError("fault rate " + s + " outside [0, 1]");
  return v;
}

StatusOr<std::uint64_t> parse_u64(std::string_view text,
                                  const std::string& what) {
  const std::string s(text);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end == nullptr || *end != '\0')
    return InvalidArgumentError("bad " + what + " '" + s + "'");
  return static_cast<std::uint64_t>(v);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = text.find(sep);
    if (pos == std::string_view::npos) {
      if (!text.empty()) out.push_back(text);
      return out;
    }
    if (pos > 0) out.push_back(text.substr(0, pos));
    text.remove_prefix(pos + 1);
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceStall: return "device_stall";
    case FaultKind::kDroppedFrame: return "dropped_frame";
    case FaultKind::kCorruptFrame: return "corrupt_frame";
    case FaultKind::kLinkFlitLoss: return "link_flit_loss";
    case FaultKind::kTranslatorOverrun: return "translator_overrun";
    case FaultKind::kSpuriousInterrupt: return "spurious_interrupt";
  }
  return "?";
}

const char* spec_token(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceStall: return "stall";
    case FaultKind::kDroppedFrame: return "drop";
    case FaultKind::kCorruptFrame: return "corrupt";
    case FaultKind::kLinkFlitLoss: return "flit";
    case FaultKind::kTranslatorOverrun: return "overrun";
    case FaultKind::kSpuriousInterrupt: return "irq";
  }
  return "?";
}

std::uint64_t default_param(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceStall: return 10;        // slots of stall
    case FaultKind::kTranslatorOverrun: return 20;  // cycles beyond WCET
    case FaultKind::kDroppedFrame:
    case FaultKind::kCorruptFrame:
    case FaultKind::kLinkFlitLoss:
    case FaultKind::kSpuriousInterrupt:
      return 1;  // magnitude is inherent: one frame / packet / slot
  }
  return 1;
}

double FaultPlan::rate(FaultKind kind) const {
  for (const auto& e : events)
    if (e.kind == kind) return e.rate;
  return 0.0;
}

std::uint64_t FaultPlan::param(FaultKind kind) const {
  for (const auto& e : events)
    if (e.kind == kind && e.param != 0) return e.param;
  return default_param(kind);
}

std::string FaultPlan::spec_string() const {
  if (empty()) return "none";
  std::ostringstream os;
  os << "seed=" << seed;
  for (const auto& e : events) {
    os << ";" << spec_token(e.kind) << ":rate=" << e.rate;
    if (e.param != 0) os << ",param=" << e.param;
  }
  return os.str();
}

StatusOr<FaultPlan> FaultPlan::parse(std::string_view spec) {
  if (spec.empty() || spec == "none") return FaultPlan{};
  // Canned name? (no ':' or ';' or '=' in canned names)
  if (spec.find(':') == std::string_view::npos &&
      spec.find('=') == std::string_view::npos) {
    return canned(spec);
  }

  // Split on ';' keeping empty segments so every diagnostic can name the
  // exact 1-based segment it refers to. A single trailing ';' is tolerated
  // (shell-quoting artifact); interior empties are rejected below.
  std::vector<std::string_view> parts;
  {
    std::string_view rest = spec;
    while (true) {
      const auto pos = rest.find(';');
      if (pos == std::string_view::npos) {
        parts.push_back(rest);
        break;
      }
      parts.push_back(rest.substr(0, pos));
      rest.remove_prefix(pos + 1);
    }
    if (parts.size() > 1 && parts.back().empty()) parts.pop_back();
  }

  FaultPlan plan;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string_view part = parts[i];
    // Every rejection names the offending segment: "segment 3 ('typo:...')".
    const auto reject = [&](StatusCode code, const std::string& msg) {
      return Status(code, "fault spec segment " + std::to_string(i + 1) +
                              " ('" + std::string(part) + "'): " + msg);
    };
    if (part.empty())
      return reject(StatusCode::kInvalidArgument,
                    "empty segment (doubled ';'?)");
    if (part.rfind("seed=", 0) == 0) {
      auto s = parse_u64(part.substr(5), "plan seed");
      if (!s.ok()) return reject(s.status().code(), s.status().message());
      plan.seed = *s;
      continue;
    }
    const auto colon = part.find(':');
    if (colon == std::string_view::npos)
      return reject(StatusCode::kInvalidArgument,
                    "want kind:rate=R[,param=P]");
    auto kind = kind_from_token(part.substr(0, colon));
    if (!kind.ok())
      return reject(StatusCode::kInvalidArgument, kind.status().message());
    if (plan.rate(*kind) != 0.0)
      return reject(StatusCode::kInvalidArgument,
                    std::string("duplicate fault kind '") +
                        spec_token(*kind) + "' in plan");

    FaultSpec event;
    event.kind = *kind;
    bool have_rate = false;
    for (std::string_view kv : split(part.substr(colon + 1), ',')) {
      if (kv.rfind("rate=", 0) == 0) {
        auto r = parse_rate(kv.substr(5));
        if (!r.ok()) return reject(r.status().code(), r.status().message());
        event.rate = *r;
        have_rate = true;
      } else if (kv.rfind("param=", 0) == 0) {
        auto p = parse_u64(kv.substr(6), "fault param");
        if (!p.ok()) return reject(p.status().code(), p.status().message());
        event.param = *p;
      } else {
        return reject(StatusCode::kInvalidArgument,
                      "bad fault attribute '" + std::string(kv) +
                          "' (want rate= or param=)");
      }
    }
    if (!have_rate)
      return reject(StatusCode::kInvalidArgument,
                    std::string("fault kind '") + spec_token(*kind) +
                        "' is missing rate=");
    // rate=0 keeps the segment valid but contributes no event: a disabled
    // kind in a scripted matrix parses cleanly instead of being a surprise.
    if (event.rate > 0.0) plan.events.push_back(event);
  }
  return plan;
}

StatusOr<FaultPlan> FaultPlan::canned(std::string_view name) {
  for (const auto& c : kCanned) {
    if (name == c.name) {
      if (c.spec[0] == '\0') return FaultPlan{};
      return parse(c.spec);
    }
  }
  std::string names;
  for (const auto& c : canned_plan_names()) {
    if (!names.empty()) names += ", ";
    names += c;
  }
  return NotFoundError("unknown fault plan '" + std::string(name) +
                       "' (canned plans: " + names + ")");
}

std::vector<std::string> FaultPlan::canned_plan_names() {
  std::vector<std::string> out;
  for (const auto& c : kCanned) out.emplace_back(c.name);
  return out;
}

FaultCounters& FaultCounters::operator+=(const FaultCounters& other) {
  injected_total += other.injected_total;
  watchdog_aborts += other.watchdog_aborts;
  retries += other.retries;
  retries_exhausted += other.retries_exhausted;
  max_retry_attempt = std::max(max_retry_attempt, other.max_retry_attempt);
  jobs_shed += other.jobs_shed;
  degraded_vms += other.degraded_vms;
  frame_faults += other.frame_faults;
  stalled_slots += other.stalled_slots;
  spurious_irq_slots += other.spurious_irq_slots;
  transit_drops += other.transit_drops;
  fifo_frames_lost += other.fifo_frames_lost;
  fifo_stalled_slots += other.fifo_stalled_slots;
  return *this;
}

}  // namespace ioguard::faults
