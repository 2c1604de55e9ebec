#include "service/admission_json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/appender.hpp"

namespace ioguard::service {

namespace {

// ---------------------------------------------------------------------------
// Parser: recursive descent over the documented subset.

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> run() {
    IOGUARD_ASSIGN_OR_RETURN(Json value, parse_value());
    skip_ws();
    if (pos_ != text_.size())
      return error("trailing characters after JSON document");
    return value;
  }

 private:
  Status error(const std::string& what) const {
    return DataLossError("JSON parse error at byte " + std::to_string(pos_) +
                         ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  StatusOr<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    Json out;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      IOGUARD_ASSIGN_OR_RETURN(out.str, parse_string());
      out.type = Json::Type::kString;
      return out;
    }
    if (consume_word("true")) {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return out;
    }
    if (consume_word("false")) {
      out.type = Json::Type::kBool;
      out.boolean = false;
      return out;
    }
    if (consume_word("null")) return out;  // kNull
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return error(std::string("unexpected character '") + c + "'");
  }

  StatusOr<Json> parse_number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return error("malformed number");
    pos_ += static_cast<std::size_t>(end - begin);
    Json out;
    out.type = Json::Type::kNumber;
    out.number = v;
    return out;
  }

  StatusOr<std::string> parse_string() {
    if (!consume('"')) return error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return error("bad hex digit in \\u escape");
          }
          // UTF-8 encode (basic multilingual plane only; no surrogate pairs).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return error(std::string("unknown escape '\\") + esc + "'");
      }
    }
    return error("unterminated string");
  }

  StatusOr<Json> parse_array() {
    if (!consume('[')) return error("expected '['");
    Json out;
    out.type = Json::Type::kArray;
    if (consume(']')) return out;
    while (true) {
      IOGUARD_ASSIGN_OR_RETURN(Json item, parse_value());
      out.items.push_back(std::move(item));
      if (consume(']')) return out;
      if (!consume(',')) return error("expected ',' or ']' in array");
    }
  }

  StatusOr<Json> parse_object() {
    if (!consume('{')) return error("expected '{'");
    Json out;
    out.type = Json::Type::kObject;
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      IOGUARD_ASSIGN_OR_RETURN(std::string key, parse_string());
      if (!consume(':')) return error("expected ':' after object key");
      IOGUARD_ASSIGN_OR_RETURN(Json value, parse_value());
      out.members.emplace_back(std::move(key), std::move(value));
      if (consume('}')) return out;
      if (!consume(',')) return error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Request decoding.

StatusOr<Slot> require_slot(const Json& json, const std::string& what) {
  if (json.type != Json::Type::kNumber)
    return InvalidArgumentError(what + " must be a number");
  if (json.number < 0.0 || json.number != std::floor(json.number) ||
      json.number > 9.007199254740992e15)  // 2^53: exact integer range
    return InvalidArgumentError(what + " must be a non-negative integer");
  return static_cast<Slot>(json.number);
}

StatusOr<std::string> optional_string(const Json& object,
                                      std::string_view key) {
  const Json* field = object.find(key);
  if (field == nullptr) return std::string{};
  if (field->type != Json::Type::kString) {
    std::string msg = "\"";
    msg += key;
    msg += "\" must be a string";
    return InvalidArgumentError(std::move(msg));
  }
  return field->str;
}

StatusOr<workload::TaskSet> decode_tasks(const Json& array) {
  if (array.type != Json::Type::kArray)
    return InvalidArgumentError("\"tasks\" must be an array");
  workload::TaskSet out;
  for (std::size_t i = 0; i < array.items.size(); ++i) {
    const Json& item = array.items[i];
    const std::string tag = "tasks[" + std::to_string(i) + "]";
    if (item.type != Json::Type::kObject)
      return InvalidArgumentError(tag + " must be an object");
    workload::IoTaskSpec spec;
    spec.kind = workload::TaskKind::kRuntime;
    const auto field = [&](const char* key) -> StatusOr<Slot> {
      const Json* f = item.find(key);
      if (f == nullptr)
        return InvalidArgumentError(tag + " is missing \"" + key + "\"");
      return require_slot(*f, tag + "." + key);
    };
    IOGUARD_ASSIGN_OR_RETURN(const Slot id, field("id"));
    spec.id = TaskId{static_cast<std::uint32_t>(id)};
    IOGUARD_ASSIGN_OR_RETURN(spec.period, field("period"));
    IOGUARD_ASSIGN_OR_RETURN(spec.wcet, field("wcet"));
    if (item.find("deadline") != nullptr) {
      IOGUARD_ASSIGN_OR_RETURN(spec.deadline, field("deadline"));
    } else {
      spec.deadline = spec.period;  // implicit deadline by default
    }
    // Enforce the TaskSet invariants here: TaskSet::add CHECK-fails on
    // violations, and wire input must never be able to crash the daemon.
    if (spec.period == 0 || spec.wcet == 0 || spec.deadline == 0 ||
        spec.deadline > spec.period || spec.wcet > spec.deadline)
      return InvalidArgumentError(tag +
                                  " must satisfy 0 < wcet <= deadline <= "
                                  "period");
    out.add(std::move(spec));
  }
  if (out.empty()) return InvalidArgumentError("\"tasks\" must be non-empty");
  return out;
}

StatusOr<sched::ServerParams> decode_server(const Json& object) {
  if (object.type != Json::Type::kObject)
    return InvalidArgumentError("\"server\" must be an object");
  sched::ServerParams server;
  const Json* pi = object.find("pi");
  const Json* theta = object.find("theta");
  if (pi == nullptr || theta == nullptr)
    return InvalidArgumentError("\"server\" needs \"pi\" and \"theta\"");
  IOGUARD_ASSIGN_OR_RETURN(server.pi, require_slot(*pi, "server.pi"));
  IOGUARD_ASSIGN_OR_RETURN(server.theta, require_slot(*theta, "server.theta"));
  return server;
}

// ---------------------------------------------------------------------------
// Canonical encoding.

/// {"schedulable":...,"checked_until":...,"violation":...} of one verdict.
void put_result(Appender& a, const sched::AdmissionResult& r) {
  a.put(R"({"schedulable":)").put(r.schedulable ? "true" : "false")
      .put(R"(,"checked_until":)").put_int(r.checked_until)
      .put(R"(,"violation":)");
  if (r.violation_t) {
    a.put_int(*r.violation_t);
  } else {
    a.put("null");
  }
  a.put_char('}');
}

/// Lowercase wire form of a status code, e.g. "invalid_argument".
std::string wire_code(StatusCode code) {
  std::string out = to_string(code);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

StatusOr<Json> parse_json(std::string_view text) {
  return Parser(text).run();
}

StatusOr<WireRequest> decode_request(std::string_view line) {
  IOGUARD_ASSIGN_OR_RETURN(const Json json, parse_json(line));
  if (json.type != Json::Type::kObject)
    return InvalidArgumentError("request must be a JSON object");

  const Json* op = json.find("op");
  if (op == nullptr || op->type != Json::Type::kString)
    return InvalidArgumentError("request needs a string \"op\"");

  WireRequest out;
  if (op->str == "stats") {
    out.stats = true;
    return out;
  }
  if (op->str == "admit") {
    out.request.op = RequestOp::kAdmit;
  } else if (op->str == "update") {
    out.request.op = RequestOp::kUpdate;
  } else if (op->str == "evict") {
    out.request.op = RequestOp::kEvict;
  } else if (op->str == "evict_tenant") {
    out.request.op = RequestOp::kEvictTenant;
  } else if (op->str == "query") {
    out.request.op = RequestOp::kQuery;
  } else {
    return InvalidArgumentError("unknown op \"" + op->str + "\"");
  }

  IOGUARD_ASSIGN_OR_RETURN(out.request.tenant, optional_string(json, "tenant"));
  IOGUARD_ASSIGN_OR_RETURN(out.request.vm, optional_string(json, "vm"));

  // Per-op required fields, mirroring AdmissionEngine::validate so a bad
  // request dies at the codec with a schema-shaped message.
  const bool needs_tenant = out.request.op != RequestOp::kQuery;
  const bool needs_vm = out.request.op != RequestOp::kQuery &&
                        out.request.op != RequestOp::kEvictTenant;
  if (needs_tenant && out.request.tenant.empty())
    return InvalidArgumentError(std::string(to_string(out.request.op)) +
                                " needs a \"tenant\"");
  if (needs_vm && out.request.vm.empty())
    return InvalidArgumentError(std::string(to_string(out.request.op)) +
                                " needs a \"vm\"");

  if (out.request.op == RequestOp::kAdmit ||
      out.request.op == RequestOp::kUpdate) {
    const Json* tasks = json.find("tasks");
    if (tasks == nullptr)
      return InvalidArgumentError("admit/update needs a \"tasks\" array");
    IOGUARD_ASSIGN_OR_RETURN(out.request.tasks, decode_tasks(*tasks));
    if (const Json* server = json.find("server"); server != nullptr) {
      IOGUARD_ASSIGN_OR_RETURN(const auto params, decode_server(*server));
      out.request.server = params;
    }
  }
  return out;
}

std::string encode_decision(const AdmissionDecision& decision) {
  std::string out;
  // Room for the fixed fields and ~150 bytes per VM: one allocation.
  out.reserve(384 + 160 * decision.per_vm.size());
  Appender a(&out);
  a.put(R"({"ok":true,"op":")").put(to_string(decision.op))
      .put(R"(","tenant":")").put_json_escaped(decision.tenant)
      .put(R"(","vm":")").put_json_escaped(decision.vm)
      .put(R"(","applied":)").put(decision.applied ? "true" : "false")
      .put(R"(,"admitted":)").put(decision.admitted ? "true" : "false")
      .put(R"(,"reason":")").put_json_escaped(decision.reason)
      .put(R"(","fleet_vms":)").put_int(decision.fleet_vms)
      .put(R"(,"allocated_bw":)").put_fixed(decision.allocated_bandwidth, 6)
      .put(R"(,"supply_bw":)").put_fixed(decision.supply_bandwidth, 6)
      .put(R"(,"fingerprint":"0x)").put_hex(decision.fleet_fingerprint)
      .put(R"(","global":)");
  put_result(a, decision.global);
  a.put(R"(,"per_vm":[)");
  for (std::size_t i = 0; i < decision.per_vm.size(); ++i) {
    const VmVerdict& v = decision.per_vm[i];
    if (i > 0) a.put_char(',');
    a.put(R"({"tenant":")").put_json_escaped(v.tenant)
        .put(R"(","vm":")").put_json_escaped(v.vm)
        .put(R"(","pi":)").put_int(v.server.pi)
        .put(R"(,"theta":)").put_int(v.server.theta)
        .put(R"(,"tasks":)").put_int(v.task_count)
        .put(R"(,"util":)").put_fixed(v.utilization, 6)
        .put(R"(,"local":)");
    put_result(a, v.local);
    a.put_char('}');
  }
  a.put("]}");
  return out;
}

std::string encode_error(const Status& status) {
  std::string out;
  Appender(&out)
      .put(R"({"ok":false,"code":")").put(wire_code(status.code()))
      .put(R"(","error":")").put_json_escaped(status.message())
      .put(R"("})");
  return out;
}

std::string encode_counters(const EngineCounters& counters,
                            std::size_t fleet_vms,
                            std::uint64_t fleet_fingerprint) {
  std::string out;
  Appender(&out)
      .put(R"({"ok":true,"stats":{"requests":)").put_int(counters.requests)
      .put(R"(,"applied":)").put_int(counters.applied)
      .put(R"(,"rejected":)").put_int(counters.rejected)
      .put(R"(,"local_hits":)").put_int(counters.local_hits)
      .put(R"(,"local_misses":)").put_int(counters.local_misses)
      .put(R"(,"global_hits":)").put_int(counters.global_hits)
      .put(R"(,"global_misses":)").put_int(counters.global_misses)
      .put(R"(,"synth_hits":)").put_int(counters.synth_hits)
      .put(R"(,"synth_misses":)").put_int(counters.synth_misses)
      .put(R"(,"vms_reanalyzed":)").put_int(counters.vms_reanalyzed())
      .put(R"(,"fleet_vms":)").put_int(fleet_vms)
      .put(R"(,"fingerprint":"0x)").put_hex(fleet_fingerprint)
      .put(R"("}})");
  return out;
}

}  // namespace ioguard::service
