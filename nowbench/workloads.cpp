#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "coopcache/coopcache.hpp"
#include "core/cluster.hpp"
#include "exp/run_context.hpp"
#include "net/placement.hpp"
#include "replay/cursor.hpp"
#include "serve/workload.hpp"
#include "trace/fs_trace.hpp"
#include "trace/trace_io.hpp"
#include "xfs/central_server.hpp"

namespace nowbench {

// --- Spans ------------------------------------------------------------------

std::uint32_t Spans::begin(std::string name, std::uint32_t parent) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Spans::end(std::uint32_t id) {
  spans_.at(id - 1).end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

bool Spans::write_json(const std::string& path,
                       const std::string& obs_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "\n],\n\"obs\": " << (obs_json.empty() ? "{}" : obs_json) << "}\n";
  out.close();
  return static_cast<bool>(out);
}

namespace {

using namespace now;

/// Times one call into a layer: adds its host seconds to `*acc` and, on
/// traced iterations, records a span.
class Timed {
 public:
  Timed(const RunOptions& opt, const char* name, double* acc,
        std::uint32_t parent = 0)
      : spans_(opt.spans), acc_(acc) {
    if (spans_ != nullptr) id_ = spans_->begin(name, parent);
  }
  ~Timed() {
    *acc_ += seconds_since(t0_);
    if (spans_ != nullptr) spans_->end(id_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Spans* spans_;
  double* acc_;
  std::uint32_t id_ = 0;
  Clock::time_point t0_ = Clock::now();
};

void put(std::string& out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.17g\n", key, v);
  out += buf;
}

void put(std::string& out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%" PRIu64 "\n", key, v);
  out += buf;
}

double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

sim::SimTime scaled(sim::SimTime t, double scale) {
  return static_cast<sim::SimTime>(static_cast<double>(t) * scale);
}

// --- The simulated engine, as the benchmark sees it from outside ----------

/// The global engine plus every partition lane's engine.
std::vector<sim::Engine*> engines_of(Cluster& c) {
  std::vector<sim::Engine*> out{&c.engine()};
  if (sim::ParallelEngine* pe = c.parallel_engine()) {
    for (std::uint32_t n = 0; n < c.size(); ++n) {
      sim::Engine* e = &pe->engine_for(n);
      if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
    }
  }
  return out;
}

struct DriveStats {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::size_t pending_max = 0;
};

/// Runs the cluster to `end`.  Untraced: one run_until call.  Traced: fixed
/// simulated slices, each a span, with the pending-event count sampled
/// between them.
DriveStats drive(Cluster& c, sim::SimTime end, sim::Duration slice,
                 const RunOptions& opt) {
  DriveStats d;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (!opt.traced) {
    c.run_until(end);
    d.wall_s = seconds_since(t0);
    d.cpu_s = cpu_seconds() - cpu0;
    return d;
  }
  const std::vector<sim::Engine*> engines = engines_of(c);
  const std::uint32_t root = opt.spans->begin("sim.run");
  for (sim::SimTime t = slice;; t += slice) {
    const sim::SimTime stop = std::min(t, end);
    const std::uint32_t s = opt.spans->begin("sim.run_until", root);
    c.run_until(stop);
    opt.spans->end(s);
    std::size_t pending = 0;
    for (const sim::Engine* e : engines) pending += e->pending();
    d.pending_max = std::max(d.pending_max, pending);
    if (stop == end) break;
  }
  opt.spans->end(root);
  d.wall_s = seconds_since(t0);
  d.cpu_s = cpu_seconds() - cpu0;
  return d;
}

/// Engine, fabric and transport layers, read from their public stats.
void engine_layers(Cluster& c, const DriveStats& d, IterResult& r) {
  std::uint64_t events = 0;
  std::uint64_t lane_max = 0;
  const std::vector<sim::Engine*> engines = engines_of(c);
  for (const sim::Engine* e : engines) {
    events += e->dispatched();
    if (e != &c.engine()) lane_max = std::max(lane_max, e->dispatched());
  }
  r.layers["sim.events"] = static_cast<double>(events);
  r.layer_times["sim.ns_per_event"] =
      frac(d.wall_s * 1e9, static_cast<double>(events));
  r.layers["sim.pending_max"] = static_cast<double>(d.pending_max);
  if (const sim::ParallelEngine* pe = c.parallel_engine()) {
    const double epochs = static_cast<double>(pe->epochs());
    const double lanes = static_cast<double>(engines.size() - 1);
    std::uint64_t lane_events = 0;
    for (std::size_t i = 1; i < engines.size(); ++i) {
      lane_events += engines[i]->dispatched();
    }
    r.layers["pe.epochs"] = epochs;
    r.layers["pe.events_per_epoch"] = frac(static_cast<double>(events), epochs);
    r.layers["pe.cross_lane_msgs"] =
        static_cast<double>(pe->messages_posted());
    r.layer_times["pe.ns_per_epoch"] = frac(d.wall_s * 1e9, epochs);
    r.layers["pe.lane_imbalance"] = frac(
        static_cast<double>(lane_max), static_cast<double>(lane_events) / lanes);
  }
  const net::NetworkStats& ns = c.network().stats();
  r.layers["net.packets"] = static_cast<double>(ns.packets_sent);
  r.layers["net.bytes"] = static_cast<double>(ns.bytes_sent);
  r.layers["net.drops"] =
      static_cast<double>(ns.packets_dropped + ns.link_drops);
  r.layers["net.wire_us_mean"] = ns.wire_time_us.mean();
  const proto::AmStats& am = c.am().stats();
  r.layers["am.sent"] = static_cast<double>(am.sent);
  r.layers["am.retransmits"] = static_cast<double>(am.retransmits);
  r.layers["am.stalled_sends"] = static_cast<double>(am.stalled_sends);
  r.layers["am.msg_latency_us_mean"] = am.msg_latency_us.mean();
  r.layers["rpc.timeouts"] = static_cast<double>(c.rpc().timeouts());

  double wait_us = 0.0;
  std::uint64_t disk_ops = 0;
  for (std::uint32_t n = 0; n < c.size(); ++n) {
    const os::Disk& disk = c.node(n).disk();
    wait_us += disk.response_time_us().sum() - disk.service_time_us().sum();
    disk_ops += disk.response_time_us().count();
  }
  double obs_reads = 0.0;
  double obs_writes = 0.0;
  c.metrics().read("os.disk.reads", &obs_reads);
  c.metrics().read("os.disk.writes", &obs_writes);
  r.layers["os.disk_ops"] = obs_reads + obs_writes;
  r.layers["os.disk_wait_ms_mean"] =
      frac(wait_us / 1000.0, static_cast<double>(disk_ops));
  r.obs_json = c.metrics().dump_json();
}

// --- Serving ------------------------------------------------------------------

constexpr sim::Duration kReadSlo = 25 * sim::kMillisecond;
constexpr sim::Duration kWriteSlo = 100 * sim::kMillisecond;
constexpr sim::Duration kComputeSlo = 10 * sim::kSecond;
constexpr std::uint32_t kWorkingSet = 2'000;

serve::RequestClass request_class(const char* name, serve::RequestOp op,
                               double weight, sim::Duration slo) {
  serve::RequestClass rc;
  rc.name = name;
  rc.op = op;
  rc.weight = weight;
  rc.slo = slo;
  rc.working_set = kWorkingSet;
  return rc;
}

/// Reads the serving outcome: op counts, the read class's simulated
/// latency, conservation checks, and the canonical output text.
void harvest_serve(const serve::ServeWorkload& w, sim::Duration horizon,
                   IterResult& r) {
  const serve::ServeTotals t = w.totals();
  const serve::SloClassReport all = w.slo().overall(horizon);
  const serve::SloClassReport read = w.slo().report(0, horizon);
  r.attempted = t.arrivals;
  r.completed = all.ok;
  r.failed = all.failed;
  r.unfinished = w.in_flight();
  r.read_p99_ms = read.p99_ms;
  r.read_mean_ms = read.mean_ms;

  if (t.arrivals != all.completed + w.in_flight()) {
    r.check_failures.push_back("serve: issued != completed + in flight");
  }
  if (t.completed != all.completed || all.ok + all.failed != all.completed) {
    r.check_failures.push_back("serve: completed != ok + failed");
  }
  std::uint64_t per_class = 0;
  put(r.outputs, "serve.arrivals", t.arrivals);
  put(r.outputs, "serve.in_flight", w.in_flight());
  for (std::size_t k = 0; k < w.slo().classes(); ++k) {
    const serve::SloClassReport c = w.slo().report(k, horizon);
    per_class += c.completed;
    const std::string p = "serve." + c.name + ".";
    put(r.outputs, (p + "completed").c_str(), c.completed);
    put(r.outputs, (p + "ok").c_str(), c.ok);
    put(r.outputs, (p + "failed").c_str(), c.failed);
    put(r.outputs, (p + "slo_met").c_str(), c.slo_met);
    put(r.outputs, (p + "mean_ms").c_str(), c.mean_ms);
    put(r.outputs, (p + "p50_ms").c_str(), c.p50_ms);
    put(r.outputs, (p + "p99_ms").c_str(), c.p99_ms);
    put(r.outputs, (p + "p999_ms").c_str(), c.p999_ms);
    put(r.outputs, (p + "max_ms").c_str(), c.max_ms);
  }
  if (per_class != all.completed) {
    r.check_failures.push_back("serve: class completions != overall");
  }
  if (r.attempted == 0 || read.completed == 0) {
    r.check_failures.push_back("serve: no reads completed");
  }
  r.layers["serve.read_p50_ms"] = read.p50_ms;
  r.layers["serve.read_p999_ms"] = read.p999_ms;
  r.layers["serve.attainment"] = all.attainment;
  r.layers["serve.goodput_per_s"] = all.goodput_per_sec;
}

// bld_serve: the building-serving study on the partitioned engine.
constexpr std::uint32_t kBldRacks = 8;
constexpr std::uint32_t kBldPerRack = 32;
constexpr double kBldOversub = 4.0;
constexpr std::uint32_t kBldClients = 2'048;
constexpr double kBldRate = 3'000.0;
constexpr sim::SimTime kBldHorizon = 5 * sim::kSecond;
constexpr sim::Duration kBldDrain = 1 * sim::kSecond;
constexpr sim::Duration kBldSlice = 100 * sim::kMillisecond;

// xfs_crash_mix: serial xFS + RAID-5 + GLUnix under a storage-node crash.
// Node 0 hosts the GLUnix master, nodes 1-16 the clients, and node 17 is a
// manager, RAID member and GLUnix guest host only.  Node 17's disk fails
// first, so the RAID runs degraded and has no I/O in flight to it when the
// node crashes a second later (member I/O is an RPC without a timeout, so
// I/O caught by the crash would never complete); it restarts 5 s after
// that and is rebuilt.  The GLUnix master never crashes: jobs submitted
// while it is down are never placed.
constexpr std::uint32_t kMixClients = 16;
constexpr std::uint32_t kMixCrashNode = kMixClients + 1;
constexpr double kMixRate = 1'600.0;
constexpr sim::SimTime kMixHorizon = 120 * sim::kSecond;
constexpr sim::Duration kMixDrain = 10 * sim::kSecond;
constexpr sim::Duration kMixOutage = 5 * sim::kSecond;
constexpr sim::Duration kMixDiskLead = 1 * sim::kSecond;
constexpr sim::Duration kMixSlice = 1 * sim::kSecond;

// table3_replay: the Table 3 study (the trace of bench_table3_coopcache).
constexpr std::uint32_t kTable3Clients = 42;
constexpr std::uint32_t kTable3Heavy = 15;  // 42 x the generator's 0.35
constexpr std::uint64_t kTable3Window = 1'000;  // reads
constexpr double kPaperMissClientServer = 16.0;  // percent
constexpr double kPaperMissNChance = 8.0;

}  // namespace

IterResult run_bld_serve(const RunOptions& opt) {
  IterResult r;
  const sim::SimTime horizon = scaled(kBldHorizon, opt.scale);
  exp::RunContext ctx;
  ctx.seed = opt.seed;
  exp::ScopedRunContext scope(ctx);

  double build_s = 0.0;
  double start_s = 0.0;
  const double cpu0 = cpu_seconds();
  const std::uint32_t setup =
      opt.spans != nullptr ? opt.spans->begin("bench.setup") : 0;
  ClusterConfig cfg;
  cfg.workstations = kBldRacks * kBldPerRack;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building = net::building_now(kBldRacks, kBldPerRack, kBldOversub);
  cfg.with_glunix = false;
  cfg.threads = opt.lanes;
  cfg.partitioning = Partitioning::kNodeLocal;
  cfg.run = &ctx;
  std::unique_ptr<Cluster> cluster;
  {
    Timed t(opt, "core.cluster_build", &build_s, setup);
    cluster = std::make_unique<Cluster>(cfg);
  }
  Cluster& c = *cluster;
  if (c.effective_threads() != opt.lanes) {
    r.check_failures.push_back("bld_serve: lane count was clamped");
  }

  // Thin clients (no block cache) against a prewarmed server on node 0,
  // spread over every other rack so each read crosses the spine.
  xfs::CentralFsParams p;
  p.client_cache_blocks = 0;
  std::vector<os::Node*> fs_clients;
  for (std::uint32_t i = 1; i < c.size(); ++i) fs_clients.push_back(&c.node(i));
  xfs::CentralServerFs fs(c.rpc(), c.node(0), fs_clients, p);
  fs.prewarm(kWorkingSet);
  fs.start();

  serve::ServeConfig sc;
  sc.population.clients = kBldClients;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = kBldRate;
  sc.population.horizon = horizon;
  sc.classes = {request_class("read", serve::RequestOp::kFileRead, 1.0, kReadSlo)};
  sc.client_nodes = net::spread_clients(cfg.building.topo, 0, kBldClients);
  sc.seed = opt.seed;
  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b, sc, c.parallel_engine());
  {
    Timed t(opt, "serve.start", &start_s, setup);
    w.start();
  }
  if (opt.spans != nullptr) opt.spans->end(setup);
  r.setup_s = cpu_seconds() - cpu0;

  const DriveStats d = drive(c, horizon + kBldDrain, kBldSlice, opt);
  r.run_cpu_s = d.cpu_s;
  r.wall_s = d.wall_s;

  harvest_serve(w, horizon, r);
  const xfs::CentralFsStats cs = fs.stats();
  put(r.outputs, "central.reads", cs.reads);
  put(r.outputs, "central.local_hits", cs.local_hits);
  put(r.outputs, "central.server_mem_hits", cs.server_mem_hits);
  put(r.outputs, "central.server_disk_reads", cs.server_disk_reads);
  put(r.outputs, "central.failed_ops", cs.failed_ops);
  if (cs.reads != r.attempted - r.unfinished) {
    r.check_failures.push_back("bld_serve: server reads != requests served");
  }
  if (opt.traced) {
    engine_layers(c, d, r);
    r.layer_times["core.cluster_build_s"] = build_s;
    r.layer_times["serve.start_s"] = start_s;
    r.layers["central.server_mem_hit_frac"] =
        frac(static_cast<double>(cs.server_mem_hits),
             static_cast<double>(cs.reads - cs.local_hits));
    r.layers["central.disk_reads"] = static_cast<double>(cs.server_disk_reads);
  }
  return r;
}

IterResult run_xfs_crash_mix(const RunOptions& opt) {
  IterResult r;
  const sim::SimTime horizon = scaled(kMixHorizon, opt.scale);
  exp::RunContext ctx;
  ctx.seed = opt.seed;
  exp::ScopedRunContext scope(ctx);

  double build_s = 0.0;
  double start_s = 0.0;
  const double cpu0 = cpu_seconds();
  const std::uint32_t setup =
      opt.spans != nullptr ? opt.spans->begin("bench.setup") : 0;
  ClusterConfig cfg;
  cfg.workstations = kMixClients + 2;
  cfg.fabric = Fabric::kAtm;
  cfg.with_glunix = true;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 64;
  cfg.stripe_group_size = 0;  // one RAID-5 across all eighteen disks
  fault::FaultPlan plan;
  plan.disk_fail_at(horizon / 2 - std::min(kMixDiskLead, horizon / 4),
                    kMixCrashNode)
      .crash_at(horizon / 2, kMixCrashNode)
      .restart_at(horizon / 2 + kMixOutage, kMixCrashNode);
  cfg.fault_plan = plan;
  cfg.partitioning = Partitioning::kAllGlobal;
  cfg.run = &ctx;
  std::unique_ptr<Cluster> cluster;
  {
    Timed t(opt, "core.cluster_build", &build_s, setup);
    cluster = std::make_unique<Cluster>(cfg);
  }
  Cluster& c = *cluster;

  serve::ServeConfig sc;
  sc.population.clients = kMixClients;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = kMixRate;
  sc.population.horizon = horizon;
  sc.classes = {
      request_class("read", serve::RequestOp::kFileRead, 0.73, kReadSlo),
      request_class("write", serve::RequestOp::kFileWrite, 0.25, kWriteSlo),
      request_class("compute", serve::RequestOp::kCompute, 0.02, kComputeSlo)};
  for (std::uint32_t i = 1; i <= kMixClients; ++i) sc.client_nodes.push_back(i);
  sc.seed = opt.seed;
  serve::Backends b;
  b.xfs = &c.fs();
  b.glunix = &c.glunix();
  serve::ServeWorkload w(c.engine(), b, sc);
  {
    Timed t(opt, "serve.start", &start_s, setup);
    w.start();
  }
  if (opt.spans != nullptr) opt.spans->end(setup);
  r.setup_s = cpu_seconds() - cpu0;

  const DriveStats d = drive(c, horizon + kMixDrain, kMixSlice, opt);
  r.run_cpu_s = d.cpu_s;
  r.wall_s = d.wall_s;

  harvest_serve(w, horizon, r);
  const xfs::XfsStats& xs = c.fs().stats();
  const raid::RaidStats rs = c.storage_stats();
  const glunix::GuestStats& gs = c.glunix().stats();
  const fault::FaultStats& fs = c.faults().stats();
  put(r.outputs, "xfs.reads", xs.reads);
  put(r.outputs, "xfs.writes", xs.writes);
  put(r.outputs, "xfs.local_hits", xs.local_hits);
  put(r.outputs, "xfs.peer_fetches", xs.peer_fetches);
  put(r.outputs, "xfs.log_reads", xs.log_reads);
  put(r.outputs, "xfs.op_retries", xs.op_retries);
  put(r.outputs, "xfs.failed_ops", xs.failed_ops);
  put(r.outputs, "xfs.manager_takeovers", xs.manager_takeovers);
  put(r.outputs, "raid.reads", rs.reads);
  put(r.outputs, "raid.writes", rs.writes);
  put(r.outputs, "raid.degraded_reads", rs.degraded_reads);
  put(r.outputs, "raid.parity_updates", rs.parity_updates);
  put(r.outputs, "glunix.launched", gs.launched);
  put(r.outputs, "glunix.completed", gs.completed);
  put(r.outputs, "glunix.migrations", gs.migrations);
  put(r.outputs, "glunix.crash_restarts", gs.crash_restarts);
  put(r.outputs, "fault.disk_fails", fs.disk_fails);
  put(r.outputs, "fault.node_crashes", fs.node_crashes);
  put(r.outputs, "fault.node_restarts", fs.node_restarts);
  put(r.outputs, "fault.rebuilds_completed", fs.rebuilds_completed);
  put(r.outputs, "net.packets", c.network().stats().packets_sent);
  put(r.outputs, "am.sent", c.am().stats().sent);
  put(r.outputs, "rpc.timeouts", c.rpc().timeouts());
  if (fs.disk_fails != 1 || fs.node_crashes != 1 || fs.node_restarts != 1) {
    r.check_failures.push_back(
        "xfs_crash_mix: node 17 did not lose its disk, crash and restart");
  }
  if (r.failed < xs.failed_ops) {
    r.check_failures.push_back("xfs_crash_mix: xFS failures not attributed");
  }
  if (opt.traced) {
    engine_layers(c, d, r);
    r.layer_times["core.cluster_build_s"] = build_s;
    r.layer_times["serve.start_s"] = start_s;
    r.layers["xfs.peer_fetch_frac"] =
        frac(static_cast<double>(xs.peer_fetches),
             static_cast<double>(xs.reads - xs.local_hits));
    r.layers["xfs.op_retries"] = static_cast<double>(xs.op_retries);
    r.layers["xfs.failed_ops"] = static_cast<double>(xs.failed_ops);
    r.layers["xfs.manager_takeovers"] =
        static_cast<double>(xs.manager_takeovers);
    r.layers["raid.degraded_reads"] = static_cast<double>(rs.degraded_reads);
    r.layers["raid.parity_updates"] = static_cast<double>(rs.parity_updates);
    r.layers["glunix.launched"] = static_cast<double>(gs.launched);
    r.layers["glunix.completed"] = static_cast<double>(gs.completed);
    r.layers["glunix.waiting_peak"] = static_cast<double>(gs.waiting_peak);
    r.layers["glunix.migrations"] = static_cast<double>(gs.migrations);
    r.layers["fault.node_crashes"] = static_cast<double>(fs.node_crashes);
    r.layers["fault.rebuilds_completed"] =
        static_cast<double>(fs.rebuilds_completed);
  }
  return r;
}

IterResult run_table3_replay(const RunOptions& opt) {
  IterResult r;
  exp::RunContext ctx;
  ctx.seed = opt.seed;
  exp::ScopedRunContext scope(ctx);

  double gen_s = 0.0;
  double write_s = 0.0;
  const double cpu0 = cpu_seconds();
  const std::uint32_t setup =
      opt.spans != nullptr ? opt.spans->begin("bench.setup") : 0;
  // 42 clients with 16 MB caches sharing a 128 MB server, on the synthetic
  // stand-in for the two-day Berkeley trace, with bench_table3_coopcache's
  // generator settings.  The generator draws from the seed which clients
  // are heavy, so trace length, sharing and memory would swing widely from
  // seed to seed.  The benchmark fixes the split instead: clients below
  // kTable3Heavy take their streams from an all-heavy trace, the rest from
  // an all-light one, merged by time.
  trace::FsWorkloadParams wp;
  wp.accesses_per_client = static_cast<std::uint64_t>(60'000 * opt.scale);
  wp.shared_blocks = 12'288;
  wp.private_blocks = 4'096;
  wp.zipf_private = 1.10;
  wp.shared_fraction = 0.35;
  wp.seed = opt.seed;
  std::uint64_t records = 0;
  {
    std::vector<trace::FsAccess> accesses;
    {
      Timed t(opt, "trace.gen", &gen_s, setup);
      wp.clients = kTable3Heavy;
      wp.heavy_client_fraction = 1.0;
      const std::vector<trace::FsAccess> heavy = trace::generate_fs_trace(wp);
      // Its own seed, so the light clients' draws are independent of the
      // heavy ones'.
      wp.clients = kTable3Clients;
      wp.heavy_client_fraction = 0.0;
      wp.seed = opt.seed ^ 0x9e3779b97f4a7c15ull;
      std::vector<trace::FsAccess> light = trace::generate_fs_trace(wp);
      std::erase_if(light, [](const trace::FsAccess& a) {
        return a.client < kTable3Heavy;
      });
      accesses.reserve(heavy.size() + light.size());
      std::merge(heavy.begin(), heavy.end(), light.begin(), light.end(),
                 std::back_inserter(accesses),
                 [](const trace::FsAccess& a, const trace::FsAccess& b) {
                   return a.at < b.at;
                 });
    }
    Timed t(opt, "trace.write", &write_s, setup);
    std::ofstream out(opt.trace_file);
    if (!out) {
      throw std::runtime_error("cannot write trace file " + opt.trace_file);
    }
    trace::write_fs_trace(out, accesses);
    out.close();
    if (!out) {
      throw std::runtime_error("failed writing trace file " + opt.trace_file);
    }
    records = accesses.size();
  }
  if (opt.spans != nullptr) opt.spans->end(setup);
  r.setup_s = cpu_seconds() - cpu0;

  const coopcache::CacheCosts costs;
  const coopcache::Policy policies[] = {
      coopcache::Policy::kClientServer, coopcache::Policy::kGreedyForwarding,
      coopcache::Policy::kCentrallyCoordinated, coopcache::Policy::kNChance};
  const std::uint64_t warm = records * 2 / 5;
  double next_s = 0.0;
  double access_s = 0.0;
  std::vector<coopcache::CoopCacheResults> results;
  // N-Chance's read latency in consecutive windows of kTable3Window measured
  // reads: the distribution its 99th percentile is taken from.
  std::vector<double> window_ms;
  const double cpu1 = cpu_seconds();
  const auto t1 = Clock::now();
  for (const coopcache::Policy policy : policies) {
    const std::uint32_t span =
        opt.spans != nullptr
            ? opt.spans->begin(std::string("coopcache.replay.") +
                               coopcache::policy_name(policy))
            : 0;
    coopcache::CoopCacheConfig cfg;
    cfg.clients = kTable3Clients;
    cfg.client_cache_blocks = 2'048;   // 16 MB at 8 KB blocks
    cfg.server_cache_blocks = 16'384;  // 128 MB
    cfg.policy = policy;
    cfg.seed = opt.seed;
    coopcache::CoopCacheSim sim(cfg);
    const coopcache::CoopCacheResults& res = sim.results();
    const bool windows = policy == coopcache::Policy::kNChance;
    std::uint64_t window_end = kTable3Window;
    double window_start_ms = 0.0;
    std::uint64_t i = 0;
    // Called after each access: closes a window when its last read is in.
    const auto close_window = [&] {
      if (!windows || i < warm || res.reads != window_end) return;
      const double total_ms =
          res.mean_read_response_ms(costs) * static_cast<double>(res.reads);
      window_ms.push_back((total_ms - window_start_ms) / kTable3Window);
      window_start_ms = total_ms;
      window_end += kTable3Window;
    };
    auto cur = replay::open_trace(opt.trace_file);
    if (!opt.traced) {
      while (auto a = cur->next()) {
        if (i == warm) sim.reset_stats();
        sim.access(a->client, a->block, a->is_write);
        close_window();
        ++i;
      }
    } else {
      // Per-record timing: the cursor's next() and the cache's access()
      // are timed separately; the clock reads are the trace overhead.
      for (;;) {
        const auto a0 = Clock::now();
        auto a = cur->next();
        const auto a1 = Clock::now();
        next_s += std::chrono::duration<double>(a1 - a0).count();
        if (!a) break;
        if (i == warm) sim.reset_stats();
        sim.access(a->client, a->block, a->is_write);
        access_s += seconds_since(a1);
        close_window();
        ++i;
      }
    }
    if (opt.spans != nullptr) opt.spans->end(span);
    if (i != records) {
      r.check_failures.push_back("table3_replay: replayed " +
                                 std::to_string(i) + " of " +
                                 std::to_string(records) + " records");
    }
    if (!sim.directory_consistent()) {
      r.check_failures.push_back(std::string("table3_replay: directory "
                                             "inconsistent after ") +
                                 coopcache::policy_name(policy));
    }
    results.push_back(sim.results());
  }
  r.run_cpu_s = cpu_seconds() - cpu1;
  r.wall_s = seconds_since(t1);
  std::remove(opt.trace_file.c_str());

  r.attempted = 4 * records;
  r.completed = 4 * records;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const coopcache::CoopCacheResults& cr = results[k];
    const std::string p = std::string("coopcache.") +
                          coopcache::policy_name(policies[k]) + ".";
    put(r.outputs, (p + "reads").c_str(), cr.reads);
    put(r.outputs, (p + "writes").c_str(), cr.writes);
    put(r.outputs, (p + "local_hits").c_str(), cr.local_hits);
    put(r.outputs, (p + "remote_client_hits").c_str(), cr.remote_client_hits);
    put(r.outputs, (p + "server_mem_hits").c_str(), cr.server_mem_hits);
    put(r.outputs, (p + "disk_reads").c_str(), cr.disk_reads);
    if (cr.local_hits + cr.remote_client_hits + cr.server_mem_hits +
            cr.disk_reads !=
        cr.reads) {
      r.check_failures.push_back(p + "levels do not sum to reads");
    }
  }

  // N-Chance's read latency.  Every read costs its level's fixed cost, so
  // the 99th percentile of single reads is always the disk cost; the 99th
  // percentile of the windowed means instead moves with how misses bunch.
  const coopcache::CoopCacheResults& nc = results[3];
  r.read_mean_ms = nc.mean_read_response_ms(costs);
  if (window_ms.empty()) {
    r.check_failures.push_back("table3_replay: no complete read window");
  } else {
    std::sort(window_ms.begin(), window_ms.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(window_ms.size())));
    r.read_p99_ms = window_ms[rank - 1];
  }
  put(r.outputs, "coopcache.n-chance.window_read_p99_ms", r.read_p99_ms);

  const double cs_miss = 100.0 * results[0].miss_rate();
  const double nc_miss = 100.0 * nc.miss_rate();
  const double err_pp = std::max(std::fabs(cs_miss - kPaperMissClientServer),
                                 std::fabs(nc_miss - kPaperMissNChance));
  char note[160];
  std::snprintf(note, sizeof note,
                "table3: miss rate client-server %.2f%% (paper 16%%), "
                "N-Chance %.2f%% (paper 8%%); table3_err_pp %.2f",
                cs_miss, nc_miss, err_pp);
  r.notes.push_back(note);
  if (opt.traced) {
    const double accesses = static_cast<double>(4 * records);
    r.layer_times["trace.gen_s"] = gen_s;
    r.layer_times["trace.write_s"] = write_s;
    r.layer_times["replay.ns_per_record"] = frac(next_s * 1e9, accesses);
    r.layer_times["coopcache.ns_per_access"] = frac(access_s * 1e9, accesses);
    r.layers["coopcache.miss_frac"] = nc.miss_rate();
    r.layers["coopcache.peer_hit_frac"] =
        frac(static_cast<double>(nc.remote_client_hits),
             static_cast<double>(nc.reads - nc.local_hits));
    r.layers["coopcache.table3_err_pp"] = err_pp;
    const char* keys[] = {"client_server", "greedy_forwarding",
                          "centrally_coordinated", "n_chance"};
    for (std::size_t k = 0; k < results.size(); ++k) {
      r.layers[std::string("coopcache.read_ms_mean.") + keys[k]] =
          results[k].mean_read_response_ms(costs);
    }
  }
  return r;
}

}  // namespace nowbench
