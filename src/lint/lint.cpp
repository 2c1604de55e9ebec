#include "lint/lint.hpp"

#include <algorithm>
#include <fstream>  // IOGUARD_LINT_ALLOW(LNT005: linter reads sources, writes nothing)
#include <ostream>
#include <sstream>
#include <string>

#include "common/appender.hpp"

namespace ioguard::lint {

namespace {

// Spelled split so the linter does not mistake its own marker constant for a
// suppression comment when pointed at this file.
constexpr const char* kAllowMarker = "IOGUARD_LINT_" "ALLOW";

constexpr const char* kDeterministicModules[] = {
    "core",   "sched",  "noc",      "iodev",     "workload",
    "faults", "system", "analysis", "telemetry", "service",
};

[[nodiscard]] bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True when `line` contains `name` as a whole identifier followed
/// (optionally after spaces) by '(' -- i.e. a call of that function.
[[nodiscard]] bool has_token_call(std::string_view line,
                                  std::string_view name) {
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    std::size_t after = pos + name.size();
    if (left_ok && (after >= line.size() || !is_ident_char(line[after]))) {
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == '(') return true;
    }
    pos += name.size();
  }
  return false;
}

[[nodiscard]] bool contains(std::string_view line, std::string_view pat) {
  return line.find(pat) != std::string_view::npos;
}

/// True when `line` contains `name` as a whole identifier (no call required;
/// member accesses like `x.vm_modes_` and `ctl->block_hi_` count).
[[nodiscard]] bool has_identifier(std::string_view line,
                                  std::string_view name) {
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t after = pos + name.size();
    if (left_ok && (after >= line.size() || !is_ident_char(line[after])))
      return true;
    pos += name.size();
  }
  return false;
}

/// True when a std::less< / std::greater< instantiation on this line names a
/// pointer type (ordering by address is a per-run accident, not a property).
[[nodiscard]] bool has_pointer_comparator(std::string_view line) {
  for (const std::string_view head : {"std::less<", "std::greater<"}) {
    std::size_t pos = 0;
    while ((pos = line.find(head, pos)) != std::string_view::npos) {
      int depth = 1;
      for (std::size_t i = pos + head.size();
           i < line.size() && depth > 0; ++i) {
        if (line[i] == '<') ++depth;
        else if (line[i] == '>') --depth;
        else if (line[i] == '*') return true;
      }
      pos += head.size();
    }
  }
  return false;
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

[[nodiscard]] std::string trimmed(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return std::string(s.substr(begin, end - begin + 1));
}

/// One parsed IOGUARD_LINT_ALLOW marker.
struct Suppression {
  std::size_t line = 0;   ///< 1-based source line it sits on
  LintCode code = LintCode::kNondeterministicRandom;
  std::string reason;
  bool well_formed = false;
  std::string problem;    ///< why it is malformed (LNT006 text)
  bool used = false;
};

/// Parses every marker on one raw source line. A marker must spell
/// `<marker>(LNTxxx: reason)` with a known code and a non-empty reason;
/// anything else is recorded as malformed so it cannot silently fail open.
void parse_suppressions(std::string_view raw, std::size_t line_no,
                        std::vector<Suppression>& out) {
  std::size_t pos = 0;
  const std::string_view marker(kAllowMarker);
  while ((pos = raw.find(marker, pos)) != std::string_view::npos) {
    Suppression sup;
    sup.line = line_no;
    std::size_t i = pos + marker.size();
    pos = i;
    if (i >= raw.size() || raw[i] != '(') {
      sup.problem = "expected '(' after the marker";
      out.push_back(std::move(sup));
      continue;
    }
    const std::size_t close = raw.find(')', i);
    if (close == std::string_view::npos) {
      sup.problem = "unterminated suppression (missing ')')";
      out.push_back(std::move(sup));
      continue;
    }
    const std::string_view body = raw.substr(i + 1, close - i - 1);
    const std::size_t colon = body.find(':');
    if (colon == std::string_view::npos) {
      sup.problem = "expected 'LNTxxx: reason' inside the suppression";
      out.push_back(std::move(sup));
      continue;
    }
    const std::string code_text = trimmed(body.substr(0, colon));
    const std::string reason = trimmed(body.substr(colon + 1));
    if (!parse_code(code_text, &sup.code)) {
      sup.problem = "unknown lint code '" + code_text + "'";
      out.push_back(std::move(sup));
      continue;
    }
    if (reason.empty()) {
      sup.problem = std::string("suppression of ") + code_string(sup.code) +
                    " carries no reason";
      out.push_back(std::move(sup));
      continue;
    }
    sup.reason = reason;
    sup.well_formed = true;
    out.push_back(std::move(sup));
  }
}

}  // namespace

const char* code_string(LintCode code) {
  switch (code) {
    case LintCode::kNondeterministicRandom: return "LNT001";
    case LintCode::kWallClock: return "LNT002";
    case LintCode::kUnorderedContainer: return "LNT003";
    case LintCode::kPointerOrderDependence: return "LNT004";
    case LintCode::kRawArtifactWrite: return "LNT005";
    case LintCode::kMalformedSuppression: return "LNT006";
    case LintCode::kStaleSuppression: return "LNT007";
    case LintCode::kEnvDependentResult: return "LNT008";
    case LintCode::kFullHorizonLoop: return "LNT009";
    case LintCode::kRawModeStateAccess: return "LNT010";
  }
  return "LNT???";
}

const char* code_summary(LintCode code) {
  switch (code) {
    case LintCode::kNondeterministicRandom:
      return "nondeterministic or implementation-defined RNG; all experiment "
             "randomness must flow through common/rng.hpp (seeded xoshiro)";
    case LintCode::kWallClock:
      return "wall-clock time source; results must be a function of (config, "
             "seed), and run timing uses steady_clock only";
    case LintCode::kUnorderedContainer:
      return "hash container in a module that feeds TrialResult or exported "
             "artifacts; iteration order would leak the bucket layout";
    case LintCode::kPointerOrderDependence:
      return "ordering by pointer value; addresses differ per run, so any "
             "order derived from them is nondeterministic";
    case LintCode::kRawArtifactWrite:
      return "raw ofstream write; consumable artifacts must route through "
             "write_file_atomic()/AtomicFileWriter (crash = torn file)";
    case LintCode::kMalformedSuppression:
      return "malformed suppression marker; must spell '(LNTxxx: reason)' "
             "with a known code and a written reason";
    case LintCode::kStaleSuppression:
      return "suppression matches no finding on its line or the next; "
             "delete it so it cannot mask a future regression";
    case LintCode::kEnvDependentResult:
      return "environment read in a module that feeds TrialResult; config "
             "must flow through TrialConfig, not process state";
    case LintCode::kFullHorizonLoop:
      return "dense per-slot loop over the full horizon; the event-driven "
             "runner (DESIGN.md §15) skips quiescent slots -- iterate "
             "releases/wake hints instead, or suppress with the reason "
             "(the stepped reference loop is the one sanctioned user)";
    case LintCode::kRawModeStateAccess:
      return "criticality-mode state touched outside ModeController; every "
             "mode read must go through its accessors (vm_mode()/hi()/"
             "block_hi()) so LO->HI switches stay atomic and auditable";
  }
  return "?";
}

bool parse_code(std::string_view text, LintCode* out) {
  if (text.size() != 6 || text.substr(0, 3) != "LNT") return false;
  std::uint32_t value = 0;
  for (const char c : text.substr(3)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (value < 1 || value > kLintCodeCount) return false;
  *out = static_cast<LintCode>(value);
  return true;
}

bool deterministic_module(std::string_view path) {
  std::size_t begin = 0;
  while (begin <= path.size()) {
    std::size_t end = path.find('/', begin);
    if (end == std::string_view::npos) end = path.size();
    const std::string_view component = path.substr(begin, end - begin);
    for (const char* module : kDeterministicModules)
      if (component == module) return true;
    begin = end + 1;
  }
  return false;
}

std::vector<std::string> strip_to_code_lines(std::string_view content) {
  enum class State : std::uint8_t {
    kCode, kLineComment, kBlockComment, kString, kChar, kRawString,
  };
  std::vector<std::string> lines;
  std::string current;
  State state = State::kCode;
  std::string raw_delim;  // the )delim" closer of an active raw string

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      lines.push_back(std::move(current));
      current.clear();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < content.size() && content[i + 1] == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && i + 1 < content.size() &&
                   content[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && i + 1 < content.size() &&
                   content[i + 1] == '"' &&
                   (i == 0 || !is_ident_char(content[i - 1]))) {
          // Raw string: R"delim( ... )delim"
          std::size_t open = i + 2;
          std::string delim;
          while (open < content.size() && content[open] != '(')
            delim += content[open++];
          raw_delim = ")" + delim + "\"";
          i = open;  // skip past the '('
          state = State::kRawString;
        } else if (c == '"') {
          current += '"';
          state = State::kString;
        } else if (c == '\'') {
          current += '\'';
          state = State::kChar;
        } else {
          current += c;
        }
        break;
      case State::kLineComment:
        break;  // dropped until newline
      case State::kBlockComment:
        if (c == '*' && i + 1 < content.size() && content[i + 1] == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped character
        } else if (c == '"') {
          current += '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          current += '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

void Linter::scan_source(std::string_view file, std::string_view content) {
  ++files_scanned_;
  // The linter's own sources are the pattern tables; scanning them reports
  // the rules, not violations of them.
  if (ends_with(file, "lint/lint.hpp") || ends_with(file, "lint/lint.cpp"))
    return;

  // Raw lines (suppressions live in comments) ...
  std::vector<std::string> raw_lines;
  {
    std::string line;
    std::istringstream is{std::string(content)};
    while (std::getline(is, line)) raw_lines.push_back(line);
  }
  // ... and code-only lines (rules must not fire on prose or literals).
  const std::vector<std::string> code_lines = strip_to_code_lines(content);

  std::vector<Suppression> suppressions;
  for (std::size_t i = 0; i < raw_lines.size(); ++i)
    parse_suppressions(raw_lines[i], i + 1, suppressions);

  std::vector<LintFinding> local;
  const bool det_module = deterministic_module(file);
  const bool rng_impl = ends_with(file, "common/rng.hpp");
  const bool atomic_impl = ends_with(file, "common/atomic_file.cpp");
  const bool mode_impl = ends_with(file, "core/mode_controller.hpp") ||
                         ends_with(file, "core/mode_controller.cpp");

  const auto add = [&](LintCode code, std::size_t line_no, std::string msg) {
    LintFinding f;
    f.code = code;
    f.file = std::string(file);
    f.line = line_no;
    f.message = std::move(msg);
    f.excerpt = line_no <= raw_lines.size()
                    ? trimmed(raw_lines[line_no - 1])
                    : "";
    local.push_back(std::move(f));
  };

  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    const std::string_view line = code_lines[i];
    const std::size_t no = i + 1;
    if (line.empty()) continue;

    // --- LNT001: nondeterministic / implementation-defined randomness. ----
    if (!rng_impl) {
      for (const char* fn :
           {"rand", "srand", "drand48", "lrand48", "mrand48", "random",
            "arc4random", "rand_r"}) {
        if (has_token_call(line, fn))
          add(LintCode::kNondeterministicRandom, no,
              std::string(fn) + "() is seeded from process state; use "
                                "ioguard::Rng (common/rng.hpp)");
      }
      for (const char* pat :
           {"std::random_device", "std::mt19937", "std::minstd_rand",
            "std::default_random_engine", "std::uniform_int_distribution",
            "std::uniform_real_distribution", "std::normal_distribution",
            "std::bernoulli_distribution"}) {
        if (contains(line, pat))
          add(LintCode::kNondeterministicRandom, no,
              std::string(pat) + " is nondeterministic or implementation-"
                                 "defined across standard libraries; use "
                                 "ioguard::Rng (common/rng.hpp)");
      }
    }

    // --- LNT002: wall-clock time sources. ---------------------------------
    for (const char* pat :
         {"std::chrono::system_clock", "system_clock::now", "gettimeofday",
          "clock_gettime", "CLOCK_REALTIME", "std::time(", "time(nullptr",
          "time(NULL", "time(0)"}) {
      if (contains(line, pat)) {
        add(LintCode::kWallClock, no,
            std::string(pat) +
                " reads the wall clock; results must depend only on "
                "(config, seed), and run timing uses steady_clock");
        break;  // one wall-clock finding per line is enough
      }
    }

    // --- Module-scoped rules. ---------------------------------------------
    if (det_module) {
      // LNT003: hash containers whose iteration order is the bucket layout.
      for (const char* pat : {"unordered_map<", "unordered_set<",
                              "unordered_multimap<", "unordered_multiset<"}) {
        if (contains(line, pat))
          add(LintCode::kUnorderedContainer, no,
              std::string(pat) +
                  "...> in a result-affecting module; iteration order is "
                  "the hash bucket layout -- use std::map / a dense array, "
                  "or suppress with the reason it is never iterated");
      }
      // LNT004: ordering by pointer value.
      if (has_pointer_comparator(line))
        add(LintCode::kPointerOrderDependence, no,
            "std::less/std::greater over a pointer type orders by address; "
            "order by a stable id instead");
      for (const char* pat : {"reinterpret_cast<std::uintptr_t>",
                              "reinterpret_cast<uintptr_t>",
                              "reinterpret_cast<std::intptr_t>"}) {
        if (contains(line, pat))
          add(LintCode::kPointerOrderDependence, no,
              "casting a pointer to an integer bakes the allocator's "
              "addresses into values; derive ids from stable state");
      }
      for (const char* pat : {".get() <", ".get() >", ".get()<", ".get()>"}) {
        if (contains(line, pat)) {
          add(LintCode::kPointerOrderDependence, no,
              "comparing smart-pointer addresses orders by allocation; "
              "order by a stable id instead");
          break;
        }
      }
      // LNT009: dense full-horizon stepping. A `for (Slot ...)` / `for
      // (Cycle ...)` loop bounded by a horizon re-introduces O(horizon)
      // work that the event-driven advance exists to skip; new code should
      // iterate releases or wake hints. Token-level on purpose: a loop
      // whose bound is spelled `horizon` (any identifier containing it,
      // e.g. `horizon_slots`) is exactly the pattern being retired.
      for (const char* head : {"for (Slot ", "for (Cycle "}) {
        if (contains(line, head) && contains(line, "horizon"))
          add(LintCode::kFullHorizonLoop, no,
              std::string(head) +
                  "...; ... < horizon ...) steps every slot densely; the "
                  "event-driven core (DESIGN.md §15) jumps quiescent "
                  "stretches -- iterate releases/wake hints, or suppress "
                  "naming why dense stepping is required");
      }
      // LNT010: criticality-mode state touched outside ModeController. The
      // raw members (`vm_modes_`, `block_hi_`) live only in
      // core/mode_controller.*; any other result-affecting file naming them
      // is reaching around the accessor surface that keeps LO->HI switches
      // atomic (a shadow copy of the mode bypasses the hysteresis and the
      // transition ledger the MCS verifier audits).
      if (!mode_impl) {
        for (const char* pat : {"vm_modes_", "block_hi_"}) {
          if (has_identifier(line, pat))
            add(LintCode::kRawModeStateAccess, no,
                std::string(pat) +
                    " is ModeController's private mode state; read modes "
                    "through vm_mode()/hi()/block_hi() so switches stay "
                    "atomic and recorded");
        }
      }
      // LNT008: process environment reaching result bytes.
      if (has_token_call(line, "getenv") || contains(line, "std::getenv") ||
          has_token_call(line, "env_int") ||
          has_token_call(line, "env_double") ||
          has_token_call(line, "env_string"))
        add(LintCode::kEnvDependentResult, no,
            "environment read in a result-affecting module; configuration "
            "must flow through TrialConfig/flags so runs are reproducible");
    }

    // --- LNT005: artifact writes that bypass the atomic-write layer. ------
    if (!atomic_impl) {
      for (const char* pat : {"std::ofstream", "std::fstream"}) {
        if (contains(line, pat))
          add(LintCode::kRawArtifactWrite, no,
              std::string(pat) +
                  " writes in place; a crash mid-write tears the file. "
                  "Route artifacts through write_file_atomic()/"
                  "AtomicFileWriter, or suppress with the reason "
                  "(e.g. append-only journal)");
      }
    }
  }

  // --- Suppression application + LNT006/LNT007 hygiene. -------------------
  for (Suppression& sup : suppressions) {
    if (sup.well_formed) continue;
    add(LintCode::kMalformedSuppression, sup.line, sup.problem);
  }
  for (LintFinding& f : local) {
    if (f.code == LintCode::kMalformedSuppression ||
        f.code == LintCode::kStaleSuppression)
      continue;  // hygiene findings are themselves unsuppressible
    for (Suppression& sup : suppressions) {
      if (!sup.well_formed || sup.code != f.code) continue;
      if (sup.line == f.line || sup.line + 1 == f.line) {
        sup.used = true;
        f.suppressed = true;
        f.suppress_reason = sup.reason;
      }
    }
  }
  for (const Suppression& sup : suppressions) {
    if (!sup.well_formed || sup.used) continue;
    add(LintCode::kStaleSuppression, sup.line,
        std::string("suppression of ") + code_string(sup.code) +
            " matches no finding on its line or the next; delete it");
  }

  std::stable_sort(local.begin(), local.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     return a.line < b.line;
                   });
  for (LintFinding& f : local) findings_.push_back(std::move(f));
}

bool Linter::scan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  scan_source(path, buffer.str());
  return true;
}

std::size_t Linter::active_count() const {
  std::size_t n = 0;
  for (const auto& f : findings_)
    if (!f.suppressed) ++n;
  return n;
}

void Linter::render_text(std::ostream& os) const {
  for (const auto& f : findings_) {
    os << f.file << ':' << f.line << ": " << code_string(f.code);
    if (f.suppressed) os << " [suppressed: " << f.suppress_reason << ']';
    os << ": " << f.message << '\n';
    if (!f.excerpt.empty()) os << "    | " << f.excerpt << '\n';
  }
  os << files_scanned() << " file(s) scanned, " << active_count()
     << " active finding(s), " << suppressed_count() << " suppressed\n";
}

void Linter::render_json(std::ostream& os) const {
  std::string buf;
  Appender a(&buf);
  a.put("{\n  \"tool\": \"ioguard_lint\",\n  \"schema_version\": 1,\n")
      .put("  \"files_scanned\": ").put_int(files_scanned())
      .put(",\n  \"active\": ").put_int(active_count())
      .put(",\n  \"suppressed\": ").put_int(suppressed_count())
      .put(",\n  \"findings\": [");
  bool first = true;
  for (const auto& f : findings_) {
    if (!first) a.put_char(',');
    first = false;
    a.put("\n    {\"code\": \"").put(code_string(f.code))
        .put("\", \"file\": \"").put_json_escaped(f.file)
        .put("\", \"line\": ").put_int(f.line)
        .put(", \"suppressed\": ").put(f.suppressed ? "true" : "false")
        .put(", \"message\": \"").put_json_escaped(f.message)
        .put("\", \"reason\": \"").put_json_escaped(f.suppress_reason)
        .put("\", \"excerpt\": \"").put_json_escaped(f.excerpt)
        .put("\"}")
        .write_to(os);
  }
  a.put("\n  ]\n}\n").write_to(os, 0);
}

}  // namespace ioguard::lint
