// Unit tests for the discrete-event engine, RNG, and statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::sim {
namespace {

using namespace now::sim::literals;

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); });
  eng.schedule_at(5, [&] { order.push_back(2); });
  eng.schedule_at(5, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByPriorityBeforeInsertion) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); }, /*priority=*/1);
  eng.schedule_at(5, [&] { order.push_back(2); }, /*priority=*/0);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule_in(10, [&] {
    eng.schedule_in(10, [&] { ++fired; });
  });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 20);
}

TEST(Engine, CancelPreventsDispatch) {
  Engine eng;
  int fired = 0;
  const EventId id = eng.schedule_in(10, [&] { ++fired; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // double-cancel is a no-op
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] { ++fired; });
  eng.schedule_at(30, [&] { ++fired; });
  eng.run_until(20);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_EQ(eng.now(), 20);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Engine eng;
  eng.run_until(5 * kSecond);
  EXPECT_EQ(eng.now(), 5 * kSecond);
}

TEST(Engine, StopHaltsRun) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastEventsClampToNow) {
  Engine eng;
  eng.schedule_at(100, [] {});
  eng.run();
  SimTime fired_at = -1;
  eng.schedule_at(50, [&] { fired_at = eng.now(); });  // in the past
  eng.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, CancelFromWithinAHandler) {
  Engine eng;
  int fired = 0;
  EventId later = 0;
  eng.schedule_at(10, [&] {
    // Cancel an event that is already in the queue for the same instant
    // and one in the future.
    eng.cancel(later);
  });
  later = eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, HandlerSchedulingAtCurrentInstantRunsThisPass) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] {
    order.push_back(1);
    eng.schedule_at(10, [&] { order.push_back(2); });  // same instant
  });
  eng.schedule_at(11, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DispatchedCounts) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_at(i, [] {});
  eng.run();
  EXPECT_EQ(eng.dispatched(), 7u);
}

TEST(Engine, StaleCancelAfterSlotReuseIsNoOp) {
  Engine eng;
  int fired = 0;
  // Cancel releases the pool slot; the next schedule reuses it under a fresh
  // generation.  The stale id must not be able to kill the new occupant.
  const EventId stale = eng.schedule_at(10, [&] { fired += 100; });
  EXPECT_TRUE(eng.cancel(stale));
  const EventId fresh = eng.schedule_at(10, [&] { ++fired; });
  EXPECT_FALSE(eng.cancel(stale));  // generation mismatch: no-op
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(eng.cancel(fresh));  // already fired
}

TEST(Engine, StaleIdStaysStaleAcrossManyReuses) {
  Engine eng;
  const EventId stale = eng.schedule_at(1, [] {});
  eng.cancel(stale);
  int fired = 0;
  for (int i = 0; i < 1'000; ++i) {
    eng.schedule_at(i, [&] { ++fired; });
    EXPECT_FALSE(eng.cancel(stale));
  }
  eng.run();
  EXPECT_EQ(fired, 1'000);
}

TEST(Engine, TieBreakOrderIsDeterministicAcrossRuns) {
  // Two independent engines fed the same scrambled same-time schedule must
  // dispatch in the identical order (time, then priority, then insertion).
  const auto record = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      const SimTime t = (i * 7) % 3;          // times 0..2, scrambled
      const int prio = (i * 5) % 4 - 2;       // priorities -2..1, scrambled
      eng.schedule_at(t, [&order, i] { order.push_back(i); }, prio);
    }
    eng.run();
    return order;
  };
  const std::vector<int> first = record();
  const std::vector<int> second = record();
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(first, second);
}

TEST(Engine, MillionEventStress) {
  constexpr int kSeeds = 1'000;
  constexpr int kChainLength = 1'000;  // 1M dispatches total
  Engine eng;
  std::uint64_t fired = 0;
  // kSeeds self-rescheduling chains with interleaved deadlines, plus a
  // cancelled twin per seed to exercise slot reuse under load.
  std::function<void(int, int)> hop = [&](int chain, int depth) {
    ++fired;
    if (depth < kChainLength) {
      eng.schedule_at(eng.now() + kSeeds, [&hop, chain, depth] {
        hop(chain, depth + 1);
      });
    }
  };
  for (int c = 0; c < kSeeds; ++c) {
    eng.schedule_at(c, [&hop, c] { hop(c, 1); });
    eng.cancel(eng.schedule_at(c, [] {}));
  }
  eng.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kSeeds) * kChainLength);
  EXPECT_EQ(eng.dispatched(), fired);
  // Chain c hops at times c, c + kSeeds, ..., c + (kChainLength-1)*kSeeds;
  // the last event overall is chain kSeeds-1 at depth kChainLength.
  EXPECT_EQ(eng.now(), (kSeeds - 1) + static_cast<SimTime>(kSeeds) *
                                          (kChainLength - 1));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, RescheduleMovesPendingEvent) {
  Engine eng;
  SimTime fired_at = -1;
  EventId id = eng.schedule_at(10, [&] { fired_at = eng.now(); });
  id = eng.reschedule(id, 50);
  ASSERT_NE(id, 0u);
  eng.run();
  EXPECT_EQ(fired_at, 50);
  EXPECT_EQ(eng.now(), 50);
}

TEST(Engine, RescheduleInvalidatesOldId) {
  Engine eng;
  int fired = 0;
  const EventId old_id = eng.schedule_at(10, [&] { ++fired; });
  const EventId new_id = eng.reschedule(old_id, 20);
  ASSERT_NE(new_id, 0u);
  EXPECT_FALSE(eng.cancel(old_id));  // superseded
  EXPECT_TRUE(eng.cancel(new_id));
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RescheduleOfFiredOrCancelledEventFails) {
  Engine eng;
  const EventId fired_id = eng.schedule_at(1, [] {});
  eng.run();
  EXPECT_EQ(eng.reschedule(fired_id, 10), 0u);
  const EventId cancelled = eng.schedule_at(5, [] {});
  eng.cancel(cancelled);
  EXPECT_EQ(eng.reschedule_in(cancelled, 10), 0u);
}

TEST(Engine, RescheduleCanPullAnEventEarlier) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(20, [&] { order.push_back(1); });
  EventId id = eng.schedule_at(30, [&] { order.push_back(2); });
  eng.schedule_at(5, [&, id] { eng.reschedule(id, 10); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(eng.now(), 20);
}

TEST(Engine, RunUntilLeavesClockAtLastEventWhenStopped) {
  Engine eng;
  eng.schedule_at(10, [&] { eng.stop(); });
  eng.schedule_at(20, [] {});
  const std::uint64_t n = eng.run_until(100);
  EXPECT_EQ(n, 1u);
  // A stopped run must not jump the clock forward to the deadline.
  EXPECT_EQ(eng.now(), 10);
  eng.run_until(100);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Time, ConversionRoundTrip) {
  EXPECT_EQ(from_us(1.0), kMicrosecond);
  EXPECT_EQ(from_ms(1.0), kMillisecond);
  EXPECT_EQ(from_sec(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_us(123 * kMicrosecond), 123.0);
  EXPECT_DOUBLE_EQ(to_ms(250 * kMicrosecond), 0.25);
  EXPECT_DOUBLE_EQ(to_sec(1500 * kMillisecond), 1.5);
}

TEST(Time, FormatPicksUnits) {
  EXPECT_EQ(format_duration(500), "500 ns");
  EXPECT_EQ(format_duration(12 * kMicrosecond + 340), "12.34 us");
  EXPECT_EQ(format_duration(3 * kSecond), "3.00 s");
}

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformInRange) {
  Pcg32 r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Pcg32, NextBelowUnbiasedCoverage) {
  Pcg32 r(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Pcg32, ExponentialMeanConverges) {
  Pcg32 r(5);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(10.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.5);
}

TEST(Pcg32, ParetoStaysInBounds) {
  Pcg32 r(6);
  for (int i = 0; i < 5000; ++i) {
    const double x = r.pareto(1.2, 1.0, 1000.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 1000.0 + 1e-9);
  }
}

TEST(Pcg32, NormalMoments) {
  Pcg32 r(7);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Pcg32, UniformIntInclusiveBounds) {
  Pcg32 r(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Pcg32 r(9);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], counts[10]);
}

TEST(Zipf, ZeroExponentIsUniform) {
  Pcg32 r(10);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  for (int c : counts) {
    EXPECT_GT(c, 1500);
    EXPECT_LT(c, 2500);
  }
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, MergeMatchesCombined) {
  Summary a, b, all;
  Pcg32 r(11);
  for (int i = 0; i < 500; ++i) {
    const double x = r.normal(0, 1);
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = r.normal(10, 3);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Histogram, PercentilesBracketTrueValues) {
  Histogram h(1.0, 1.05);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.5), 500, 500 * 0.06);
  EXPECT_NEAR(h.percentile(0.99), 990, 990 * 0.06);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, ExtremeQuantilesBracketMinAndMax) {
  Histogram h(1.0, 1.05);
  for (double x : {2.0, 5.0, 20.0, 80.0, 300.0}) h.add(x);
  // q=0 is the smallest sample's bin upper bound; q=1 the largest's.
  EXPECT_GE(h.percentile(0.0), 2.0);
  EXPECT_LE(h.percentile(0.0), 2.0 * 1.05);
  EXPECT_GE(h.percentile(1.0), 300.0);
  EXPECT_LE(h.percentile(1.0), 300.0 * 1.05);
  // Out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, UnderflowBinResolvesToLo) {
  Histogram h(10.0, 1.05);
  for (int i = 0; i < 9; ++i) h.add(0.5);  // all below lo
  h.add(1000.0);
  EXPECT_EQ(h.count(), 10u);
  // 90 % of the mass is in the underflow bin: low quantiles report `lo`.
  EXPECT_EQ(h.percentile(0.0), 10.0);
  EXPECT_EQ(h.percentile(0.5), 10.0);
  EXPECT_GE(h.percentile(1.0), 1000.0);
  // The summary still sees the exact values.
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

// merge() is how per-lane latency shards combine at report time: bin
// counts are integers, so any grouping of the same samples must produce
// the identical histogram — the foundation of thread-count-invariant
// statistics.
TEST(Histogram, MergeEqualsSingleHistogramOverTheUnion) {
  Histogram whole(1.0, 1.05);
  Histogram a(1.0, 1.05), b(1.0, 1.05), c(1.0, 1.05);
  Pcg32 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.exponential(1.0 / 250.0) + 0.2;  // some underflow
    whole.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << "q=" << q;
  }
}

TEST(Histogram, MergeEmptyIsIdentity) {
  Histogram a(1.0, 1.05), empty(1.0, 1.05);
  a.add(3.0);
  a.add(70.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.max(), 70.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), a.percentile(1.0));
}

TEST(Summary, MergeVarianceIsExact) {
  // Small integer samples so the expected moments are exact by hand:
  // {1,2,3} merged with {10,14} = {1,2,3,10,14}.
  Summary a, b, all;
  for (double x : {1.0, 2.0, 3.0}) { a.add(x); all.add(x); }
  for (double x : {10.0, 14.0}) { b.add(x); all.add(x); }
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 30.0);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 14.0);
  // Sample variance of {1,2,3,10,14} is 130/4 = 32.5, and the pairwise
  // merge must reproduce it to rounding, not just approximately.
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_NEAR(a.variance(), 32.5, 1e-12);
}

TEST(Summary, MergeWithEmptySides) {
  Summary empty1, empty2;
  empty1.merge(empty2);
  EXPECT_EQ(empty1.count(), 0u);
  EXPECT_EQ(empty1.mean(), 0.0);

  Summary s;
  s.add(3.0);
  s.add(5.0);
  Summary lhs_empty;
  lhs_empty.merge(s);  // empty.merge(nonempty) adopts the other side
  EXPECT_EQ(lhs_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs_empty.mean(), 4.0);

  Summary rhs_empty;
  s.merge(rhs_empty);  // nonempty.merge(empty) is a no-op
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
}

}  // namespace
}  // namespace now::sim
