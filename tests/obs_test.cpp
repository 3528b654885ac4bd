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
