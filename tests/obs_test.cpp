// Tests for the now::obs observability subsystem: the metrics registry,
// simulated-time span tracing with its Chrome-JSON exporter, and the
// periodic sampler.  Everything here runs against fresh local registries
// or clears the process-wide singletons up front, so the tests do not
// depend on what other instrumented code has already registered.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::obs {
namespace {

// --- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistry, LookupCreatesOnceAndReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.packets_sent");
  Counter& b = reg.counter("net.packets_sent");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);

  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.find_counter("net.packets_sent")->value(), 3u);
  EXPECT_EQ(reg.find_counter("net.nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("net.packets_sent"), nullptr);  // wrong kind
}

TEST(MetricsRegistry, ReadCoversEveryKind) {
  MetricsRegistry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(2.5);
  reg.summary("s").observe(10.0);
  reg.summary("s").observe(20.0);
  reg.histogram("h").observe(4.0);

  double v = 0;
  EXPECT_TRUE(reg.read("c", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_TRUE(reg.read("g", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(reg.read("s", &v));
  EXPECT_DOUBLE_EQ(v, 15.0);  // summaries read as their mean
  EXPECT_TRUE(reg.read("h", &v));
  EXPECT_DOUBLE_EQ(v, 4.0);
  EXPECT_FALSE(reg.read("missing", &v));
}

TEST(MetricsRegistry, DumpIsSortedAndDeterministic) {
  MetricsRegistry reg;
  // Registered out of order; the dump must come out sorted.
  reg.counter("zeta").inc();
  reg.gauge("alpha").set(1.0);
  reg.counter("mid.path").inc(2);

  const std::string d1 = reg.dump_json();
  EXPECT_LT(d1.find("\"alpha\""), d1.find("\"mid.path\""));
  EXPECT_LT(d1.find("\"mid.path\""), d1.find("\"zeta\""));

  // A second registry built the same way dumps byte-identically.
  MetricsRegistry reg2;
  reg2.counter("zeta").inc();
  reg2.gauge("alpha").set(1.0);
  reg2.counter("mid.path").inc(2);
  EXPECT_EQ(d1, reg2.dump_json());
}

TEST(MetricsRegistry, DisabledUpdatesAreDropped) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  set_enabled(false);
  c.inc(5);
  g.set(9.0);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.inc(5);
  EXPECT_EQ(c.value(), 5u);
}

// --- Published paths ----------------------------------------------------

TEST(Publication, ReadsAndDumpsLikeOwnedInstruments) {
  MetricsRegistry reg;
  std::uint64_t sent = 0;
  sim::Summary latency;
  double level = 0.0;
  Publication pub(reg);
  pub.counter("net.sent", sent)
      .summary("net.latency_us", latency)
      .gauge("net.level", [&level] { return level; });
  EXPECT_EQ(reg.size(), 3u);

  // The registry reads the component's own values, as they are now.
  sent = 7;
  latency.add(10.0);
  latency.add(20.0);
  level = 2.5;
  double v = 0;
  EXPECT_TRUE(reg.read("net.sent", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_TRUE(reg.read("net.latency_us", &v));
  EXPECT_DOUBLE_EQ(v, 15.0);
  EXPECT_TRUE(reg.read("net.level", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_EQ(reg.find_counter("net.sent"), nullptr) << "no owned instrument";

  // Same dump as an owned registry recording the same values.
  MetricsRegistry owned;
  owned.counter("net.sent").inc(7);
  owned.summary("net.latency_us").observe(10.0);
  owned.summary("net.latency_us").observe(20.0);
  owned.gauge("net.level").set(2.5);
  EXPECT_EQ(reg.dump_json(), owned.dump_json());
}

TEST(Publication, SharedPathsSumCountersAndGaugesAndMergeSummaries) {
  MetricsRegistry reg;
  std::uint64_t reads[2] = {3, 4};
  sim::Summary svc[2];
  svc[0].add(1.0);
  svc[1].add(5.0);
  svc[1].add(6.0);
  Publication disk0(reg);
  Publication disk1(reg);
  disk0.counter("disk.reads", reads[0])
      .summary("disk.svc", svc[0])
      .gauge("disk.queue", [] { return 1.0; });
  disk1.counter("disk.reads", reads[1])
      .summary("disk.svc", svc[1])
      .gauge("disk.queue", [] { return 2.0; });

  double v = 0;
  EXPECT_TRUE(reg.read("disk.reads", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_TRUE(reg.read("disk.queue", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
  EXPECT_TRUE(reg.read("disk.svc", &v));
  EXPECT_DOUBLE_EQ(v, 4.0);  // (1 + 5 + 6) / 3
  const std::string json = reg.dump_json();
  EXPECT_NE(json.find("\"disk.svc\": {\"count\": 3,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"min\": 1, \"max\": 6,"), std::string::npos) << json;

  // One publisher may publish two fields under one path; they sum too.
  std::uint64_t fallback_reads = 2;
  std::uint64_t fallback_writes = 5;
  Publication pager(reg);
  pager.counter("pager.fallbacks", fallback_reads)
      .counter("pager.fallbacks", fallback_writes);
  EXPECT_TRUE(reg.read("pager.fallbacks", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(Publication, WithdrawnCountersAndSummariesKeepTheirTotals) {
  MetricsRegistry reg;
  double v = 0;
  for (int run = 1; run <= 2; ++run) {
    std::uint64_t sent = 10;
    sim::Summary latency;
    latency.add(4.0 * run);
    Publication pub(reg);
    pub.counter("am.sent", sent)
        .summary("am.latency_us", latency)
        .gauge("am.level", [] { return 9.0; });
  }
  // Both components are gone: counts accumulate across them, summaries
  // merge, gauges contribute nothing, and every path is still listed.
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.read("am.sent", &v));
  EXPECT_DOUBLE_EQ(v, 20.0);
  EXPECT_TRUE(reg.read("am.latency_us", &v));
  EXPECT_DOUBLE_EQ(v, 6.0);  // (4 + 8) / 2
  EXPECT_TRUE(reg.read("am.level", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);

  // A live publisher adds to the withdrawn total.
  std::uint64_t sent = 5;
  Publication pub(reg);
  pub.counter("am.sent", sent);
  EXPECT_TRUE(reg.read("am.sent", &v));
  EXPECT_DOUBLE_EQ(v, 25.0);
}

TEST(Publication, OutlivingAResetIsHarmless) {
  MetricsRegistry reg;
  std::uint64_t sent = 3;
  {
    Publication pub(reg);
    pub.counter("net.sent", sent);
    reg.reset();
    EXPECT_EQ(reg.size(), 0u);
  }  // withdraws from a path that no longer exists
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Publication, PublishesIntoTheThreadsActiveRegistry) {
  MetricsRegistry reg;
  MetricsRegistry* prev = set_thread_metrics(&reg);
  std::uint64_t sent = 4;
  {
    Publication pub;  // resolves obs::metrics() at construction
    set_thread_metrics(prev);
    pub.counter("net.sent", sent);
  }
  double v = 0;
  EXPECT_TRUE(reg.read("net.sent", &v));
  EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(Publication, KillSwitchLeavesPublishedPathsAlone) {
  MetricsRegistry reg;
  std::uint64_t sent = 0;
  Publication pub(reg);
  pub.counter("net.sent", sent);
  set_enabled(false);
  sent = 6;
  double v = 0;
  const bool found = reg.read("net.sent", &v);
  set_enabled(true);
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(v, 6.0);
}

// --- Tracer -------------------------------------------------------------

TEST(Tracer, ExportedJsonHasCompleteEventsAndMetadata) {
  Tracer& t = tracer();
  t.clear();
  t.enable(1024);
  const TrackId net = t.track("net");
  t.complete(/*node=*/7, net, "pkt", 1'000, 251'000);  // 0.25 ms span
  t.instant_at(/*node=*/7, net, "drop", 500'000);

  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process metadata names the node row, thread metadata the module track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("node 7"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // The span: phase X, microsecond timestamps (1000 ns = 1 us, no
  // fractional digits when the remainder is zero).
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 250,"), std::string::npos);
  // The instant: phase i.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);

  // Structural validity: balanced braces/brackets, no trailing comma.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
  t.disable();
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer& t = tracer();
  t.clear();
  t.enable(/*capacity=*/4);
  const TrackId track = t.track("ring");
  for (int i = 0; i < 10; ++i) {
    t.instant_at(0, track, std::string("e").append(std::to_string(i)),
                 i * 1'000);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string json = os.str();
  // Only the newest four survive, oldest-first in the export.
  EXPECT_EQ(json.find("\"e5\""), std::string::npos);
  ASSERT_NE(json.find("\"e6\""), std::string::npos);
  EXPECT_LT(json.find("\"e6\""), json.find("\"e9\""));
  t.disable();
}

TEST(Tracer, NothingRecordedWhileDisabled) {
  Tracer& t = tracer();
  t.clear();
  EXPECT_FALSE(t.enabled());
  t.instant_at(0, t.track("off"), "ignored", 1'000);
  EXPECT_EQ(t.size(), 0u);
}

// --- Sampler ------------------------------------------------------------

TEST(Sampler, SnapshotsWatchedInstrumentsEveryPeriod) {
  sim::Engine engine;
  MetricsRegistry reg;
  Counter& sent = reg.counter("sent");
  Sampler sampler(engine, reg, 10 * sim::kMillisecond);
  sampler.watch("sent");
  sampler.watch("unregistered.path");  // samples as 0
  sampler.start();

  // +1 at t=5ms, +2 at t=15ms, +4 at t=25ms.
  engine.schedule_at(5 * sim::kMillisecond, [&] { sent.inc(1); });
  engine.schedule_at(15 * sim::kMillisecond, [&] { sent.inc(2); });
  engine.schedule_at(25 * sim::kMillisecond, [&] { sent.inc(4); });
  // Note 35 ms, not 30: a stop at exactly 30 ms (priority 0) would run
  // before — and cancel — the 30 ms sample (priority +1).
  engine.schedule_at(35 * sim::kMillisecond, [&] { sampler.stop(); });
  engine.run();

  ASSERT_EQ(sampler.rows(), 3u);
  std::ostringstream os;
  sampler.dump_csv(os);
  const std::string csv = os.str();
  std::istringstream lines(csv);
  std::string header, r1, r2, r3;
  std::getline(lines, header);
  std::getline(lines, r1);
  std::getline(lines, r2);
  std::getline(lines, r3);
  EXPECT_EQ(header, "time_ms,sent,unregistered.path");
  EXPECT_EQ(r1, "10,1,0");
  EXPECT_EQ(r2, "20,3,0");
  EXPECT_EQ(r3, "30,7,0");
}

TEST(Sampler, SamplesPublishedPaths) {
  sim::Engine engine;
  MetricsRegistry reg;
  std::uint64_t sent = 0;
  std::size_t queue = 0;
  Publication pub(reg);
  pub.counter("sent", sent).gauge("queue", [&queue] {
    return static_cast<double>(queue);
  });
  Sampler sampler(engine, reg, 10 * sim::kMillisecond);
  sampler.watch("sent");
  sampler.watch("queue");
  sampler.start();
  engine.schedule_at(5 * sim::kMillisecond, [&] {
    sent = 2;
    queue = 3;
  });
  engine.schedule_at(15 * sim::kMillisecond, [&] {
    sent = 5;
    queue = 0;
  });
  engine.schedule_at(25 * sim::kMillisecond, [&] { sampler.stop(); });
  engine.run();

  std::ostringstream os;
  sampler.dump_csv(os);
  EXPECT_EQ(os.str(), "time_ms,sent,queue\n10,2,3\n20,5,0\n");
}

TEST(Sampler, JsonDumpListsColumnsAndRows) {
  sim::Engine engine;
  MetricsRegistry reg;
  reg.gauge("level").set(2.0);
  Sampler sampler(engine, reg, sim::kMillisecond);
  sampler.watch("level");
  sampler.start();
  engine.schedule_at(3 * sim::kMillisecond + 1, [&] { sampler.stop(); });
  engine.run();

  std::ostringstream os;
  sampler.dump_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"columns\""), std::string::npos);
  EXPECT_NE(json.find("\"level\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_EQ(sampler.rows(), 3u);
}

}  // namespace
}  // namespace now::obs
