#include "obs/metrics.hpp"

#include <cassert>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <type_traits>

namespace now::obs {

namespace {
MetricsRegistry& process_metrics() {
  static MetricsRegistry registry;
  return registry;
}
thread_local MetricsRegistry* t_metrics = nullptr;
}  // namespace

MetricsRegistry& metrics() {
  return t_metrics != nullptr ? *t_metrics : process_metrics();
}

MetricsRegistry* set_thread_metrics(MetricsRegistry* r) {
  MetricsRegistry* prev = t_metrics;
  t_metrics = r;
  return prev;
}

template <typename T, typename... Args>
MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view path,
                                               Args... args) {
  auto it = instruments_.find(path);
  if (it == instruments_.end()) {
    it = instruments_
             .try_emplace(std::string(path), std::in_place_type<T>, args...)
             .first;
  }
  const bool same_kind = std::holds_alternative<T>(it->second);
  assert(same_kind && "path re-registered with another kind");
  if (same_kind) return *it;
  // Release-build fallback: park the mismatched caller on a suffixed path so
  // neither party corrupts the other's instrument.
  return entry<T>(std::string(path) + ".kind_conflict", args...);
}

Counter& MetricsRegistry::counter(std::string_view path) {
  return std::get<Counter>(entry<Counter>(path).second);
}

Gauge& MetricsRegistry::gauge(std::string_view path) {
  return std::get<Gauge>(entry<Gauge>(path).second);
}

Summary& MetricsRegistry::summary(std::string_view path) {
  return std::get<Summary>(entry<Summary>(path).second);
}

Histogram& MetricsRegistry::histogram(std::string_view path, double lo,
                                      double growth) {
  return std::get<Histogram>(entry<Histogram>(path, lo, growth).second);
}

// --- Publication ------------------------------------------------------------

template <typename Published, typename Source>
Publication& Publication::publish(std::string_view path, Source source) {
  auto& [key, inst] = registry_.entry<Published>(path);
  std::get<Published>(inst).live.emplace_back(this, std::move(source));
  paths_.push_back(key);
  return *this;
}

Publication& Publication::counter(std::string_view path,
                                  const std::uint64_t& field) {
  return publish<MetricsRegistry::PublishedCounter>(path, &field);
}

Publication& Publication::summary(std::string_view path,
                                  const sim::Summary& field) {
  return publish<MetricsRegistry::PublishedSummary>(path, &field);
}

Publication& Publication::gauge(std::string_view path,
                                std::function<double()> read) {
  return publish<MetricsRegistry::PublishedGauge>(path, std::move(read));
}

Publication::~Publication() {
  for (const std::string& path : paths_) registry_.withdraw(path, this);
}

namespace {
// Adds one publisher's value to a path's total.
void add_to(std::uint64_t& total, const std::uint64_t* count) {
  total += *count;
}
void add_to(sim::Summary& total, const sim::Summary* summary) {
  total.merge(*summary);
}
void add_to(double& total, const std::function<double()>& level) {
  total += level();
}
}  // namespace

void MetricsRegistry::withdraw(std::string_view path,
                               const Publication* owner) {
  const auto it = instruments_.find(path);
  if (it == instruments_.end()) return;  // reset() since publication
  std::visit(
      [owner](auto& inst) {
        if constexpr (requires { inst.live; }) {
          for (const auto& [o, source] : inst.live) {
            // A gauge is a level, not an accumulation: it leaves nothing.
            if constexpr (!std::is_same_v<decltype(inst), PublishedGauge&>) {
              if (o == owner) add_to(inst.withdrawn, source);
            }
          }
          std::erase_if(inst.live, [owner](const auto& source) {
            return source.first == owner;
          });
        }
      },
      it->second);
}

// --- Reading ----------------------------------------------------------------

MetricsRegistry::Reading MetricsRegistry::reading(const Instrument& inst) {
  return std::visit(
      [](const auto& i) -> Reading {
        if constexpr (requires { i.live; }) {
          auto total = i.withdrawn;
          for (const auto& source : i.live) add_to(total, source.second);
          return total;
        } else if constexpr (std::is_same_v<decltype(i), const Histogram&>) {
          return &i.value();
        } else {
          return i.value();
        }
      },
      inst);
}

bool MetricsRegistry::read(std::string_view path, double* out) const {
  const auto it = instruments_.find(path);
  if (it == instruments_.end()) return false;
  struct Scalar {
    double operator()(std::uint64_t c) const { return static_cast<double>(c); }
    double operator()(double g) const { return g; }
    double operator()(const sim::Summary& s) const { return s.mean(); }
    double operator()(const sim::Histogram* h) const { return h->mean(); }
  };
  *out = std::visit(Scalar{}, reading(it->second));
  return true;
}

namespace {

/// Shortest round-trippable rendering, identical across platforms for
/// identical doubles — what keeps two-run dump diffs empty.
void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_summary_json(std::string& out, const sim::Summary& s) {
  out += "{\"count\": ";
  out += std::to_string(s.count());
  out += ", \"mean\": ";
  append_number(out, s.mean());
  out += ", \"min\": ";
  append_number(out, s.min());
  out += ", \"max\": ";
  append_number(out, s.max());
  out += ", \"stddev\": ";
  append_number(out, s.stddev());
  out += "}";
}

struct JsonValue {
  std::string& out;
  void operator()(std::uint64_t c) const { out += std::to_string(c); }
  void operator()(double g) const { append_number(out, g); }
  void operator()(const sim::Summary& s) const { append_summary_json(out, s); }
  void operator()(const sim::Histogram* h) const {
    out += "{\"count\": ";
    out += std::to_string(h->count());
    out += ", \"mean\": ";
    append_number(out, h->mean());
    out += ", \"p50\": ";
    append_number(out, h->percentile(0.50));
    out += ", \"p95\": ";
    append_number(out, h->percentile(0.95));
    out += ", \"p99\": ";
    append_number(out, h->percentile(0.99));
    out += ", \"max\": ";
    append_number(out, h->max());
    out += "}";
  }
};

}  // namespace

std::string MetricsRegistry::dump_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [path, inst] : instruments_) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"";
    out += path;  // paths are registered from code literals; no escaping
    out += "\": ";
    std::visit(JsonValue{out}, reading(inst));
  }
  out += "\n}\n";
  return out;
}

void MetricsRegistry::dump_json(std::ostream& os) const { os << dump_json(); }

bool MetricsRegistry::dump_json_to(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << dump_json();
  return static_cast<bool>(f);
}

}  // namespace now::obs
