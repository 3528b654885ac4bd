// nowbench: times the NOW simulator end to end and per layer.
//
//   nowbench --workload <bld_serve|xfs_crash_mix|table3_replay> --seed N
//            [--seconds S] [--trace 0|1]
//            [--lanes L] [--scale F] [--iterations K]
//            [--trace-file PATH] [--spans-out PATH]
//
// Repeats one workload, with the inputs the seed gives, until --seconds of
// host time have passed (or exactly --iterations times), checks every
// iteration's simulated outputs, and prints a report whose last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, each metric a
// bare number (run.py adds the units from BENCHMARK.json).  --trace 0
// reports the end-to-end metrics; --trace 1 alternates untraced and traced
// iterations and reports the per-layer metrics a workload exercises,
// writing the traced spans and the obs registry dump to --spans-out.
// bld_serve runs on 1 lane with --trace 0 and on 2 with --trace 1 unless
// --lanes says otherwise.  See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using nowbench::IterResult;
using nowbench::RunOptions;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "nowbench: error: %s\n"
               "usage: nowbench --workload <bld_serve|xfs_crash_mix|"
               "table3_replay> --seed N [--seconds S] [--trace 0|1] "
               "[--lanes L] [--scale F] [--iterations K] "
               "[--trace-file PATH] [--spans-out PATH]\n",
               msg.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  bool trace = false;
  unsigned lanes = 0;  // 0 = 2 on a traced bld_serve run, else 1
  double scale = 1.0;
  unsigned iterations = 0;  // 0 = run for --seconds
  std::string trace_file;
  std::string spans_out;
};

double parse_number(const char* flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
    usage_error(std::string(flag) + " wants a number in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                text + "'");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || v[0] == '-') {
        usage_error(std::string("--seed wants a non-negative integer, got '") +
                    v + "'");
      }
      a.have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number("--seconds", v, 0.001, 3600);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage_error(std::string("--trace wants 0 or 1, got '") + v + "'");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--lanes") {
      a.lanes = static_cast<unsigned>(parse_number("--lanes", v, 1, 64));
    } else if (flag == "--scale") {
      a.scale = parse_number("--scale", v, 0.001, 1.0);
    } else if (flag == "--iterations") {
      a.iterations =
          static_cast<unsigned>(parse_number("--iterations", v, 1, 1000));
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (a.workload != "bld_serve" && a.workload != "xfs_crash_mix" &&
      a.workload != "table3_replay") {
    usage_error("--workload must be bld_serve, xfs_crash_mix or "
                "table3_replay, got '" + a.workload + "'");
  }
  if (!a.have_seed) usage_error("--seed is required");
  if (a.trace_file.empty()) {
    a.trace_file = "nowbench-" + std::to_string(a.seed) + ".trace";
  }
  if (a.spans_out.empty()) a.spans_out = "nowbench-spans-" + a.workload + ".json";
  // The partitioned engine's wall time swings with host scheduling far
  // beyond any usable bound, so timed runs use the serial engine and the
  // traced run measures the 2-lane barrier per layer (README.md).
  if (a.lanes == 0) a.lanes = a.trace && a.workload == "bld_serve" ? 2 : 1;
  return a;
}

std::string digest(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

IterResult run_once(const Args& a, bool traced, nowbench::Spans* spans) {
  RunOptions opt;
  opt.seed = a.seed;
  opt.traced = traced;
  opt.lanes = a.lanes;
  opt.scale = a.scale;
  opt.trace_file = a.trace_file;
  opt.spans = traced ? spans : nullptr;
  if (a.workload == "bld_serve") return nowbench::run_bld_serve(opt);
  if (a.workload == "xfs_crash_mix") return nowbench::run_xfs_crash_mix(opt);
  return nowbench::run_table3_replay(opt);
}

// The host the benchmark was defined on is shared, and its speed drifts by
// up to 1.7x within minutes; CPU time drifts with it, because the cause is
// other tenants' use of the caches and memory, not scheduling.  So timed
// figures are normalised: a run also times a fixed reference loop, and
// every host time is reported as CPU seconds x kReferenceS / the loop's
// median CPU seconds in that run, i.e. in seconds of a host that runs the
// loop in kReferenceS.  The loop shares no code with the simulator, so any
// change to the simulator still moves the normalised figures in full.
constexpr double kReferenceS = 0.1;
// Between iterations, the reference loop runs until it has taken this share
// of the run's host time: enough samples for a steady median.
constexpr double kReferenceShare = 0.1;

volatile std::uint64_t reference_sink = 0;  // keeps the loop's work

/// A miniature event loop: a binary heap of timestamps, each pop pushing a
/// later one, with a random-access counter table of 8 MB.  Returns its CPU
/// seconds.
double reference_loop_cpu_s() {
  const double cpu0 = nowbench::cpu_seconds();
  std::vector<std::uint32_t> table(1u << 21);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4096; ++i) heap.push(next() >> 20);
  std::uint64_t sum = 0;
  for (int i = 0; i < 500'000; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    const std::uint64_t r = next();
    table[(t ^ r) & (table.size() - 1)] += 1;
    sum += table[(r >> 7) & (table.size() - 1)];
    heap.push(t + (r >> 40));
  }
  reference_sink = sum;
  return nowbench::cpu_seconds() - cpu0;
}

/// Appends `"name": value` to a JSON object body.
void put_json(std::string& out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += (out.empty() ? "\"" : ", \"") + name + "\": " + buf;
}

int run(const Args& a) {
  if (a.trace) {
    std::ofstream probe(a.spans_out);
    if (!probe) {
      std::fprintf(stderr, "nowbench: error: cannot write spans to %s\n",
                   a.spans_out.c_str());
      return 1;
    }
  }
  nowbench::Spans spans;
  std::vector<IterResult> plain;
  std::vector<IterResult> traced;
  std::vector<double> reference;
  double reference_s = 0.0;
  const auto t0 = nowbench::Clock::now();
  for (unsigned i = 0;; ++i) {
    do {
      reference.push_back(reference_loop_cpu_s());
      reference_s += reference.back();
    } while (reference_s < kReferenceShare * nowbench::seconds_since(t0));
    plain.push_back(run_once(a, false, nullptr));
    if (a.trace) traced.push_back(run_once(a, true, &spans));
    if (a.iterations > 0 ? i + 1 >= a.iterations
                         : nowbench::seconds_since(t0) >= a.seconds) {
      break;
    }
  }

  // Same seed, same outputs: every iteration, traced or not, must agree.
  std::vector<std::string> failures;
  const std::string want = plain.front().outputs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const IterResult& r : *set) {
      for (const std::string& f : r.check_failures) failures.push_back(f);
      if (r.outputs != want) {
        failures.push_back("simulated outputs differ between iterations");
      }
      attempted += r.attempted;
      failed += r.failed + r.unfinished;
    }
  }
  for (const IterResult& r : traced) {
    if (r.layers != traced.front().layers) {
      failures.push_back("per-layer simulated metrics differ between "
                         "iterations");
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  const bool correct = failures.empty() && attempted > 0;
  if (!correct) failed = attempted;

  const IterResult& first = plain.front();
  std::printf("nowbench workload=%s seed=%" PRIu64 " lanes=%u scale=%g "
              "iterations=%zu trace=%d\n",
              a.workload.c_str(), a.seed, a.lanes, a.scale, plain.size(),
              a.trace ? 1 : 0);
  for (const std::string& n : first.notes) std::printf("%s\n", n.c_str());
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("digest %s %" PRIu64 " %s\n", a.workload.c_str(), a.seed,
              digest(want).c_str());

  std::map<std::string, double> values;
  std::vector<double> cpu;
  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> ops;
  std::printf("per-iteration cpu run_s/wall run_s/cpu setup_s:");
  for (const IterResult& r : plain) {
    cpu.push_back(r.run_cpu_s);
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    ops.push_back(static_cast<double>(r.completed) / r.run_cpu_s);
    std::printf(" %.4g/%.4g/%.3g", r.run_cpu_s, r.wall_s, r.setup_s);
  }
  std::printf("\nreference loop cpu s:");
  for (const double s : reference) std::printf(" %.4g", s);
  std::printf("\n");
  const double norm = kReferenceS / median(reference);
  if (!a.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    values["run_s"] = median(cpu) * norm;
    values["ops_per_s"] = median(ops) / norm;
    values["setup_s"] = median(setup) * norm;
    values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    values["completed_frac"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
    values["sim_read_p99_ms"] = first.read_p99_ms;
    values["sim_read_mean_ms"] = first.read_mean_ms;
  } else {
    // Host times vary from iteration to iteration: medians.  The simulated
    // figures were checked to repeat.
    values = traced.front().layers;
    std::map<std::string, std::vector<double>> times;
    for (const IterResult& r : traced) {
      for (const auto& [name, v] : r.layer_times) times[name].push_back(v);
    }
    for (const auto& [name, v] : times) values[name] = median(v);
    std::vector<double> traced_wall;
    for (const IterResult& r : traced) traced_wall.push_back(r.wall_s);
    values["bench.trace_overhead_frac"] =
        median(traced_wall) / median(wall) - 1.0;
    if (values.count("pe.epochs") != 0) values["pe.wall_s"] = median(wall);
    values["bench.reference_loop_s"] = median(reference);
    if (!spans.write_json(a.spans_out, traced.back().obs_json)) {
      std::fprintf(stderr, "nowbench: error: cannot write spans to %s\n",
                   a.spans_out.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                a.spans_out.c_str());
  }

  std::string metrics;
  for (const auto& [name, v] : values) put_json(metrics, name, v);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nowbench: error: %s\n", e.what());
    return 1;
  }
}
