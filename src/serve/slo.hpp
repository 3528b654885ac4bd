// now::serve — tail-latency SLO accounting.
//
// A serving system is judged on its tail, not its mean: the paper-era
// argument for dedicating a building to a service only holds if p99/p999
// end-to-end latency stays inside a service-level objective while load
// and failures do their worst.  SloTracker records every completed
// request into a fine-grained log-spaced histogram (2 % relative
// quantile error) per request class, judges it against the class SLO,
// and reports p50/p99/p999, attainment (fraction of completed requests
// that succeeded *and* met the SLO), and goodput (SLO-meeting successes
// per second of offered interval).
//
// Partitioned runs record from many lanes at once, so the tracker shards:
// set_lanes(P) gives every lane its own histogram + counter block, and
// record(cls, latency, ok, lane) touches only that lane's shard — no lock
// on the completion path.  Reports merge the shards with *exact*
// arithmetic (integer bin counts, integer latency sums, min/max), so
// every printed number is identical at any thread count and any lane
// layout; nothing order-dependent (like Welford mean merging) sits on the
// report path.
//
// Each class is mirrored into now::obs under serve.<class>.* — the
// latency histogram plus completed/failed/slo_miss counters — so serving
// runs show up in metrics dumps and the periodic sampler like every
// other subsystem.  The obs instruments are themselves thread-safe
// (relaxed atomics / spinlock) and shared by all lanes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::serve {

struct SloClassReport {
  std::string name;
  sim::Duration slo = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;      // completed successfully (no backend failure)
  std::uint64_t failed = 0;  // backend reported failure (EIO / timeout)
  std::uint64_t slo_met = 0; // ok and latency <= slo
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  /// slo_met / completed; 1.0 before any completion.
  double attainment = 1.0;
  /// slo_met per second of the reporting interval.
  double goodput_per_sec = 0.0;
};

class SloTracker {
 public:
  /// Instruments register under "<prefix>.<class>.*" in the calling
  /// thread's obs registry (the run's private one inside a sweep).
  explicit SloTracker(std::string prefix = "serve");

  /// Adds a request class; returns its index.  Call before record().
  std::size_t add_class(const std::string& name, sim::Duration slo);

  /// Shards the tracker for `lanes` concurrent recorders (default 1 —
  /// the serial layout).  Call after add_class() and before record().
  void set_lanes(unsigned lanes);

  std::size_t classes() const { return classes_.size(); }
  unsigned lanes() const { return static_cast<unsigned>(shards_.size()); }

  /// Records one completed request of class `cls`: end-to-end `latency`,
  /// and whether the backend succeeded.  A failed request can never meet
  /// the SLO, whatever its latency.  `lane` must be the recording lane's
  /// index (ParallelEngine::lane_of); each lane owns its shard, so concurrent
  /// calls from *different* lanes are race-free.
  void record(std::size_t cls, sim::Duration latency, bool ok,
              unsigned lane = 0);

  /// Per-class report; `elapsed` is the interval goodput is judged over.
  /// Merges all lane shards exactly — byte-identical at any lane count.
  SloClassReport report(std::size_t cls, sim::Duration elapsed) const;

  /// All classes merged (each request judged against its own class SLO).
  SloClassReport overall(sim::Duration elapsed) const;

  std::uint64_t completed() const;

 private:
  struct ClassMeta {
    std::string name;
    sim::Duration slo = 0;
    obs::Histogram* obs_latency = nullptr;
    obs::Counter* obs_completed = nullptr;
    obs::Counter* obs_failed = nullptr;
    obs::Counter* obs_slo_miss = nullptr;
  };
  struct ClassShard {
    // 1 us floor, 2 % bins: tight enough for honest p999 readings.
    sim::Histogram latency_us{1.0, 1.02};
    /// Exact latency sum — integer addition is associative, so the merged
    /// mean does not depend on how samples were grouped into lanes.
    std::uint64_t sum_ns = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t slo_met = 0;
  };
  struct LaneShard {
    std::vector<ClassShard> classes;
    sim::Histogram all_us{1.0, 1.02};
    std::uint64_t all_sum_ns = 0;
    std::uint64_t completed = 0;
  };

  /// All lanes' shards for `cls` merged into one (plus summed tallies).
  ClassShard merged(std::size_t cls) const;
  static void fill(SloClassReport& r, const sim::Histogram& h,
                   std::uint64_t sum_ns, sim::Duration elapsed);

  std::string prefix_;
  std::vector<ClassMeta> classes_;
  std::vector<LaneShard> shards_;  // one per lane; [0] exists from birth
};

}  // namespace now::serve
