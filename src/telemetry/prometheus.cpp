#include "telemetry/prometheus.hpp"

#include <cmath>
#include <ostream>
#include <string>
#include <string_view>

#include "common/appender.hpp"

namespace ioguard::telemetry {

namespace {

/// A gauge value, sum or bucket bound, as `os << v` at precision 15 printed
/// it; NaN is spelled the Prometheus way.
void put_value(Appender& a, double v) {
  if (std::isnan(v)) {
    a.put("NaN");
  } else {
    a.put_general(v, 15);
  }
}

/// Writes the series name with `suffix` and opens its label block with the
/// entry's labels; returns the character that must come next to add another
/// label: '{' when none was written, ',' otherwise.
char open_series(Appender& a, const MetricsRegistry::Entry& e,
                 std::string_view suffix) {
  a.put(e.name).put(suffix);
  char next = '{';
  for (const Label& l : e.labels) {
    a.put_char(next).put(l.key).put("=\"").put(l.value).put_char('"');
    next = ',';
  }
  return next;
}

/// A sample without extra labels: `name{a="x"} ` or `name ` when unlabelled.
void open_sample(Appender& a, const MetricsRegistry::Entry& e,
                 std::string_view suffix) {
  if (open_series(a, e, suffix) == ',') a.put_char('}');
  a.put_char(' ');
}

const char* type_name(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter: return "counter";
    case MetricsRegistry::Kind::kGauge: return "gauge";
    case MetricsRegistry::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  std::string buf;
  Appender a(&buf);
  std::string_view current_family;
  const std::vector<MetricsRegistry::Entry> entries = registry.entries();
  for (const auto& e : entries) {
    if (e.name != current_family) {
      current_family = e.name;
      a.put("# TYPE ").put(e.name).put_char(' ').put(type_name(e.kind))
          .put_char('\n');
    }
    switch (e.kind) {
      case MetricsRegistry::Kind::kCounter:
        open_sample(a, e, "");
        a.put_int(e.counter->value()).put_char('\n');
        break;
      case MetricsRegistry::Kind::kGauge:
        open_sample(a, e, "");
        put_value(a, e.gauge->value());
        a.put_char('\n');
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const LatencyHistogram& h = *e.histogram;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          a.put_char(open_series(a, e, "_bucket")).put("le=\"");
          put_value(a, h.bounds()[i]);
          a.put("\"} ").put_int(h.cumulative(i)).put_char('\n');
        }
        a.put_char(open_series(a, e, "_bucket")).put("le=\"+Inf\"} ")
            .put_int(h.count()).put_char('\n');
        open_sample(a, e, "_sum");
        put_value(a, h.sum());
        a.put_char('\n');
        open_sample(a, e, "_count");
        a.put_int(h.count()).put_char('\n');
        break;
      }
    }
    a.write_to(os);
  }
  a.write_to(os, 0);
}

}  // namespace ioguard::telemetry
