// The three nowbench workloads and the host-time span recorder they share.
//
// Each workload is one iteration of a study driven through the library's
// public API: build the inputs and the cluster (timed as set-up), run the
// simulation (timed as the run), then read back simulated outputs and check
// them.  A traced iteration additionally slices the run into fixed
// simulated intervals, times the benchmark's own calls into each layer and
// reads every layer's public stats.  Nothing here instruments src/.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nowbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host CPU seconds used by the whole process so far (every thread, user
/// and system).  Timed runs use it instead of wall time, so time the
/// process spends descheduled on a shared host does not count.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// In-memory host-time spans around the benchmark's calls into the
/// library; written out once, when the benchmark ends.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t begin(std::string name, std::uint32_t parent = 0);
  void end(std::uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes {"spans": [...], "obs": <obs_json>}; false if `path` cannot be
  /// written.
  bool write_json(const std::string& path, const std::string& obs_json) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Traced iteration: slice the run, time each layer call, read stats.
  bool traced = false;
  /// Lanes for bld_serve's partitioned engine (1 = the serial engine).
  unsigned lanes = 1;
  /// Shrinks the simulated horizon (or trace length) for quick checks.
  double scale = 1.0;
  /// Where table3_replay writes its generated trace during set-up.
  std::string trace_file;
  /// Receives spans on traced iterations; may be null otherwise.
  Spans* spans = nullptr;
};

struct IterResult {
  /// Host CPU seconds building the inputs, the cluster and the workload.
  double setup_s = 0.0;
  /// Host CPU seconds, and wall seconds, from the first event to the end of
  /// the drain.
  double run_cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  /// Ops the backend reported failed.
  std::uint64_t failed = 0;
  /// Ops still unfinished after the drain.
  std::uint64_t unfinished = 0;
  /// Simulated read latency, milliseconds.
  double read_p99_ms = 0.0;
  double read_mean_ms = 0.0;
  /// Canonical text of every deterministic simulated output; the digest
  /// is its hash.
  std::string outputs;
  /// Empty when every correctness check passed.
  std::vector<std::string> check_failures;
  /// Lines for the human-readable report (paper comparison and the like).
  std::vector<std::string> notes;
  /// Per-layer metrics, filled on traced iterations only: simulated
  /// figures and counts, identical in every iteration of one seed ...
  std::map<std::string, double> layers;
  /// ... and host times, which vary from iteration to iteration.
  std::map<std::string, double> layer_times;
  /// The run's obs registry dump (traced iterations only).
  std::string obs_json;
};

IterResult run_bld_serve(const RunOptions& opt);
IterResult run_xfs_crash_mix(const RunOptions& opt);
IterResult run_table3_replay(const RunOptions& opt);

}  // namespace nowbench
