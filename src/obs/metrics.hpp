// now::obs — cluster-wide observability: the metrics registry.
//
// A dotted path ("net.link_drops", "am.msg_latency_us") is either
// *published* or *owned*:
//
//  * Published — the value already lives in a component (a count in its
//    stats struct, a sim::Summary, or a level computed from its state),
//    and the component lends it through one obs::Publication member.  The
//    registry reads it in place, so each event is counted once.  Several
//    publishers of one path add up (counters, gauges) or merge
//    (summaries).  A withdrawn counter or summary keeps its final value in
//    the path's total, so totals accumulate across components that come
//    and go; a withdrawn gauge contributes nothing.
//  * Owned — an instrument with no twin in any component lives in the
//    registry.  Its component caches the handle, so an update is one
//    pointer dereference plus a branch on the global enable flag.
//
// read(), the dumps and the Sampler treat both alike.  obs::metrics() is
// process-wide, so modules instrument themselves without threading a
// registry through every constructor; the Cluster facade re-exports it.
//
// Determinism contract: values only change from simulated events, dumps
// iterate in sorted path order and merge a path's publishers in
// publication order, and no wall-clock value is recorded — two runs with
// the same seed dump byte-identically.  set_enabled(false) or
// -DNOW_OBS_DISABLED turns every owned-instrument update into a dead
// branch; published paths cost nothing and are not gated.
//
// Threading model: registration, publication and dumps are engine-confined
// (one simulation, one thread); set_thread_metrics rebinds obs::metrics()
// per thread, which is how now::exp gives concurrent simulations their own
// registries.  Owned-instrument updates are also safe from the lanes of
// one partitioned run: Counter/Gauge are relaxed atomics, Summary/Histogram
// serialize observe() behind a spinlock.  Published values are read
// unsynchronized, so they are read only when no lane runs: after a
// partitioned run, or from the serial engine (the Sampler's tick).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sim/spinlock.hpp"
#include "sim/stats.hpp"

namespace now::obs {

namespace detail {
/// Single process-wide kill switch shared by every instrument update and
/// trace emission.  Atomic (relaxed) so concurrent simulations may read it
/// while a test toggles it; the toggle itself is not synchronized with
/// in-flight updates.
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// True when instrumentation should record.  Compiled to `false` (and the
/// guarded updates to nothing) under -DNOW_OBS_DISABLED.
inline bool enabled() {
#ifdef NOW_OBS_DISABLED
  return false;
#else
  return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic event count ("packets dropped", "segments cleaned").
/// Updates are relaxed atomic adds: lanes of a partitioned run may bump the
/// same counter concurrently, and the total is exact regardless of order.
class Counter {
 public:
  void inc(std::uint64_t by = 1) {
    if (enabled()) v_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level ("run-queue length", "log utilization").
class Gauge {
 public:
  void set(double v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Streaming distribution without percentile queries (min/mean/max/stddev).
/// observe() serializes behind a spinlock; count/min/max stay exact under
/// partitioned execution, while sum-derived moments (mean/stddev) depend on
/// floating-point accumulation order — see DESIGN.md §12.
class Summary {
 public:
  void observe(double x) {
    if (!enabled()) return;
    sim::SpinGuard g(lock_);
    s_.add(x);
  }
  const sim::Summary& value() const { return s_; }

 private:
  sim::Summary s_;
  mutable sim::SpinLock lock_;
};

/// Log-binned distribution with percentile queries.  Same locking
/// discipline as Summary; bin counts are exact under partitioning.
class Histogram {
 public:
  explicit Histogram(double lo = 1.0, double growth = 1.05) : h_(lo, growth) {}
  void observe(double x) {
    if (!enabled()) return;
    sim::SpinGuard g(lock_);
    h_.add(x);
  }
  const sim::Histogram& value() const { return h_; }

 private:
  sim::Histogram h_;
  mutable sim::SpinLock lock_;
};

class MetricsRegistry;

/// The calling thread's active registry: its override if one is installed,
/// else the process-wide default.  Handles cached from it are confined to
/// the simulation that cached them.
MetricsRegistry& metrics();

/// Rebinds obs::metrics() on this thread to `r` (nullptr = back to the
/// process default) and returns the previous override.  The caller owns
/// `r`'s lifetime; exp::ScopedRunContext pairs install/restore with a run.
MetricsRegistry* set_thread_metrics(MetricsRegistry* r);

/// The paths one component publishes: values it already keeps, which the
/// registry reads in place.  A component holds one Publication member,
/// declared after every field it publishes (so it withdraws them while
/// they still exist), and publishes from its constructor:
///
///   obs_pub_.counter("am.sent", stats_.sent)
///       .summary("am.msg_latency_us", stats_.msg_latency_us);
///
/// Destruction withdraws every path.  Not copyable or movable: the
/// registry holds the addresses of the published fields.
class Publication {
 public:
  /// Publishes into the calling thread's active registry, obs::metrics().
  Publication() : Publication(metrics()) {}
  explicit Publication(MetricsRegistry& registry) : registry_(registry) {}
  ~Publication();
  Publication(const Publication&) = delete;
  Publication& operator=(const Publication&) = delete;

  /// A count the component keeps.
  Publication& counter(std::string_view path, const std::uint64_t& field);
  /// A field of another integer type would bind as a converted temporary
  /// and dangle; it does not compile.
  Publication& counter(std::string_view path, std::uint64_t&& field) = delete;
  /// A distribution the component keeps.
  Publication& summary(std::string_view path, const sim::Summary& field);
  /// A level that is a pure function of the component's state; `read` runs
  /// at every registry read until the component withdraws.
  Publication& gauge(std::string_view path, std::function<double()> read);

 private:
  template <typename Published, typename Source>
  Publication& publish(std::string_view path, Source source);

  MetricsRegistry& registry_;
  std::vector<std::string> paths_;  // as registered (kind conflicts suffixed)
};

/// Hierarchical instrument registry keyed by dotted paths.
///
/// counter()/gauge()/summary()/histogram() create an owned instrument on
/// first use and return a stable reference (node-based storage: handles
/// never move); Publication adds published paths.  Asking for an existing
/// path with a different kind aborts in debug builds and uses a freshly
/// suffixed path in release ones.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view path);
  Gauge& gauge(std::string_view path);
  Summary& summary(std::string_view path);
  Histogram& histogram(std::string_view path, double lo = 1.0,
                       double growth = 1.05);

  /// The owned instrument at `path`, or nullptr (also for published paths,
  /// which have no instrument; read them with read() or a dump).
  const Counter* find_counter(std::string_view path) const {
    return find<Counter>(path);
  }
  const Gauge* find_gauge(std::string_view path) const {
    return find<Gauge>(path);
  }
  const Histogram* find_histogram(std::string_view path) const {
    return find<Histogram>(path);
  }

  /// Scalar reading of any path, owned or published: counter value, gauge
  /// value, or the mean of a summary/histogram.  False if `path` is not
  /// registered.
  bool read(std::string_view path, double* out) const;

  /// All registered paths, sorted (the registry's native order).
  std::size_t size() const { return instruments_.size(); }

  /// Deterministic dump: sorted key order, no wall-clock anything.
  void dump_json(std::ostream& os) const;
  std::string dump_json() const;
  bool dump_json_to(const std::string& path) const;

  /// Drops every path.  Outstanding handles dangle and live publications
  /// stop being read; only call between experiments, before the next round
  /// of constructors re-register.
  void reset() { instruments_.clear(); }

 private:
  friend class Publication;

  // A published path: its live publishers plus the total that withdrawn
  // ones left behind.
  template <typename Source, typename Total>
  struct Published {
    std::vector<std::pair<const Publication*, Source>> live;
    Total withdrawn{};
  };
  using PublishedCounter = Published<const std::uint64_t*, std::uint64_t>;
  using PublishedSummary = Published<const sim::Summary*, sim::Summary>;
  using PublishedGauge = Published<std::function<double()>, double>;

  using Instrument =
      std::variant<Counter, Gauge, Summary, Histogram, PublishedCounter,
                   PublishedSummary, PublishedGauge>;

  /// What a path reports, whoever keeps the value: a count, a level, a
  /// summary (merged across publishers) or a histogram.
  using Reading =
      std::variant<std::uint64_t, double, sim::Summary, const sim::Histogram*>;
  static Reading reading(const Instrument& inst);

  using Entry = std::pair<const std::string, Instrument>;

  /// The entry of kind T at `path`, created from `args` if absent, or at a
  /// suffixed path if `path` already holds another kind.
  template <typename T, typename... Args>
  Entry& entry(std::string_view path, Args... args);
  template <typename T>
  const T* find(std::string_view path) const {
    const auto it = instruments_.find(path);
    return it == instruments_.end() ? nullptr : std::get_if<T>(&it->second);
  }

  /// Removes `owner`'s publishers from `path`, folding counters and
  /// summaries into its withdrawn total.
  void withdraw(std::string_view path, const Publication* owner);

  std::map<std::string, Instrument, std::less<>> instruments_;
};

}  // namespace now::obs
