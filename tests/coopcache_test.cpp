// Tests for the cooperative-caching simulator (Table 3's machinery).
#include <gtest/gtest.h>

#include "coopcache/coopcache.hpp"
#include "coopcache/lru.hpp"
#include "trace/fs_trace.hpp"

namespace now::coopcache {
namespace {

TEST(Lru, InsertTouchEvictOrder) {
  LruCache c(2);
  std::uint64_t victim = 0;
  EXPECT_FALSE(c.insert(1, &victim));
  EXPECT_FALSE(c.insert(2, &victim));
  EXPECT_TRUE(c.touch(1));       // 2 is now LRU
  EXPECT_TRUE(c.insert(3, &victim));
  EXPECT_EQ(victim, 2u);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(3));
  EXPECT_FALSE(c.contains(2));
}

TEST(Lru, TouchMissingReturnsFalse) {
  LruCache c(2);
  EXPECT_FALSE(c.touch(9));
}

TEST(Lru, EraseRemoves) {
  LruCache c(2);
  c.insert(1);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.size(), 0u);
}

TEST(Lru, ReinsertingPresentKeyTouches) {
  LruCache c(2);
  c.insert(1);
  c.insert(2);
  c.insert(1);  // refresh, no eviction
  std::uint64_t victim = 0;
  EXPECT_TRUE(c.insert(3, &victim));
  EXPECT_EQ(victim, 2u);
}

TEST(Lru, ZeroCapacityNeverStores) {
  LruCache c(0);
  c.insert(1);
  EXPECT_FALSE(c.contains(1));
}

CoopCacheConfig small_config(Policy p) {
  CoopCacheConfig cfg;
  cfg.clients = 3;
  cfg.client_cache_blocks = 4;
  cfg.server_cache_blocks = 8;
  cfg.policy = p;
  return cfg;
}

TEST(CoopCache, LocalHitAfterFirstRead) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 100, false);  // disk
  sim.access(0, 100, false);  // local
  EXPECT_EQ(sim.results().disk_reads, 1u);
  EXPECT_EQ(sim.results().local_hits, 1u);
}

TEST(CoopCache, ClientServerIgnoresPeers) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 100, false);     // disk; now cached at client 0 and server
  // Push block 100 out of the server cache with distinct other blocks.
  for (std::uint64_t b = 1; b <= 8; ++b) sim.access(1, 1000 + b, false);
  sim.access(2, 100, false);     // client 0 holds it, but no cooperation
  EXPECT_EQ(sim.results().remote_client_hits, 0u);
  EXPECT_EQ(sim.results().disk_reads, 9u + 1u);
}

TEST(CoopCache, GreedyForwardingUsesPeerMemory) {
  CoopCacheSim sim(small_config(Policy::kGreedyForwarding));
  sim.access(0, 100, false);  // disk
  for (std::uint64_t b = 1; b <= 8; ++b) sim.access(1, 1000 + b, false);
  sim.access(2, 100, false);  // forwarded from client 0's memory
  EXPECT_EQ(sim.results().remote_client_hits, 1u);
}

TEST(CoopCache, ServerCacheCatchesRepeatMisses) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 100, false);                       // disk, fills server
  for (std::uint64_t b = 1; b <= 4; ++b) sim.access(0, 200 + b, false);
  // Block 100 evicted from client 0's 4-block cache but still in server.
  sim.access(0, 100, false);
  EXPECT_EQ(sim.results().server_mem_hits, 1u);
  EXPECT_EQ(sim.results().disk_reads, 5u);
}

TEST(CoopCache, NChanceForwardsSinglets) {
  CoopCacheConfig cfg = small_config(Policy::kNChance);
  CoopCacheSim sim(cfg);
  sim.access(0, 100, false);
  // Evict block 100 from client 0 (the only copy -> singlet): it should
  // hop to a peer's cache rather than vanish.
  for (std::uint64_t b = 1; b <= 4; ++b) sim.access(0, 200 + b, false);
  EXPECT_GE(sim.holders(100), 1u);
}

TEST(CoopCache, NChanceRecirculationIsBounded) {
  CoopCacheConfig cfg = small_config(Policy::kNChance);
  cfg.nchance_limit = 1;
  CoopCacheSim sim(cfg);
  sim.access(0, 100, false);
  // Flood everyone with distinct blocks; block 100 can be forwarded at most
  // once, then must die.  Mostly checks this terminates and stays sane.
  for (std::uint32_t c = 0; c < cfg.clients; ++c) {
    for (std::uint64_t b = 0; b < 50; ++b) {
      sim.access(c, 10'000 + c * 100 + b, false);
    }
  }
  SUCCEED();
}

TEST(CoopCache, WritesCountedSeparately) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 1, true);
  sim.access(0, 1, false);
  EXPECT_EQ(sim.results().writes, 1u);
  EXPECT_EQ(sim.results().reads, 1u);
  EXPECT_EQ(sim.results().local_hits, 1u);  // write installed it
}

TEST(CoopCache, ResponseTimeUsesCostModel) {
  CoopCacheResults r;
  r.reads = 100;
  r.local_hits = 78;
  r.server_mem_hits = 6;
  r.disk_reads = 16;
  CacheCosts costs;
  // 0.78*0.25 + 0.06*1.05 + 0.16*15.85 ms = 2.79 ms -- Table 3's 2.8 ms row.
  EXPECT_NEAR(r.mean_read_response_ms(costs), 2.79, 0.02);
}

// Replays the Table 3 workload (scaled in trace length for test speed)
// under one policy, with a 40 % warm-up prefix excluded from the stats.
CoopCacheResults run_table3_workload(Policy policy) {
  trace::FsWorkloadParams wp;
  wp.clients = 42;
  wp.accesses_per_client = 40'000;
  wp.shared_blocks = 12'288;
  wp.private_blocks = 4'096;
  wp.zipf_private = 1.10;
  wp.shared_fraction = 0.35;
  const auto accesses = trace::generate_fs_trace(wp);

  CoopCacheConfig cfg;           // Table 3: 16 MB clients, 128 MB server
  cfg.clients = wp.clients;
  cfg.client_cache_blocks = 2'048;
  cfg.server_cache_blocks = 16'384;
  cfg.policy = policy;

  CoopCacheSim sim(cfg);
  const std::size_t warm = accesses.size() * 2 / 5;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (i == warm) sim.reset_stats();
    sim.access(accesses[i].client, accesses[i].block, accesses[i].is_write);
  }
  return sim.results();
}

// The headline property: on a shared workload, cooperation at least halves
// disk reads and substantially improves read response (Table 3's shape).
TEST(CoopCache, CooperationBeatsClientServerOnSharedWorkload) {
  const auto r_cs = run_table3_workload(Policy::kClientServer);
  const auto r_nc = run_table3_workload(Policy::kNChance);
  EXPECT_LT(r_nc.miss_rate(), r_cs.miss_rate() * 0.6);
  EXPECT_GT(r_nc.remote_client_hits, 0u);
  const CacheCosts costs;
  EXPECT_LT(r_nc.mean_read_response_ms(costs),
            r_cs.mean_read_response_ms(costs) / 1.3);
}

TEST(CoopCache, CentralCoordinationAlsoHelps) {
  const auto r_cs = run_table3_workload(Policy::kClientServer);
  const auto r_cc = run_table3_workload(Policy::kCentrallyCoordinated);
  EXPECT_LT(r_cc.miss_rate(), r_cs.miss_rate());
}

TEST(CoopCache, GreedyForwardingSitsBetweenBaselineAndNChance) {
  const auto r_cs = run_table3_workload(Policy::kClientServer);
  const auto r_gf = run_table3_workload(Policy::kGreedyForwarding);
  const auto r_nc = run_table3_workload(Policy::kNChance);
  EXPECT_LT(r_gf.miss_rate(), r_cs.miss_rate());
  EXPECT_LT(r_nc.miss_rate(), r_gf.miss_rate());
}

// Determinism: identical seeds give identical results.
TEST(CoopCache, DeterministicForSeed) {
  trace::FsWorkloadParams wp;
  wp.clients = 6;
  wp.accesses_per_client = 2'000;
  const auto accesses = trace::generate_fs_trace(wp);
  CoopCacheConfig cfg;
  cfg.clients = wp.clients;
  cfg.client_cache_blocks = 256;
  cfg.server_cache_blocks = 1'024;
  cfg.policy = Policy::kNChance;
  CoopCacheSim a(cfg), b(cfg);
  for (const auto& acc : accesses) {
    a.access(acc.client, acc.block, acc.is_write);
    b.access(acc.client, acc.block, acc.is_write);
  }
  EXPECT_EQ(a.results().disk_reads, b.results().disk_reads);
  EXPECT_EQ(a.results().remote_client_hits, b.results().remote_client_hits);
}

// Golden counters: each policy replays one seeded trace, and every
// CoopCacheResults counter, plus the directory's final holder count over
// the shared blocks, must equal the value recorded from the node-based
// (std::list / unordered_map) implementation the flat storage replaced.
// Eviction order, find_holder's choice and N-Chance's RNG draws all feed
// these numbers, so any drift in them shows here.
struct GoldenCase {
  Policy policy;
  std::uint32_t clients;
  std::uint32_t rack_size;
  CoopCacheResults expect;
  /// Sum of holders() over the shared pool's blocks at the end.
  std::size_t held;
};

void replay_golden(const GoldenCase& g) {
  trace::FsWorkloadParams wp;
  wp.clients = g.clients;
  wp.accesses_per_client = 3'000;
  wp.shared_blocks = 2'048;
  wp.private_blocks = 512;
  wp.seed = 7;
  const auto accesses = trace::generate_fs_trace(wp);

  CoopCacheConfig cfg;
  cfg.clients = g.clients;
  cfg.client_cache_blocks = 128;
  cfg.server_cache_blocks = 1'024;
  cfg.policy = g.policy;
  cfg.rack_size = g.rack_size;
  if (g.rack_size > 0) {
    cfg.costs.remote_client_cross_rack = sim::from_us(2'400);
  }
  cfg.seed = 11;
  CoopCacheSim sim(cfg);
  const std::size_t warm = accesses.size() / 4;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (i == warm) sim.reset_stats();
    const trace::FsAccess& a = accesses[i];
    sim.access(a.client, a.block, a.is_write);
    // The accessing client now holds the block (caches are 128 blocks, so
    // no forwarding chain can push out the MRU entry).
    ASSERT_GE(sim.holders(a.block), 1u) << "at access " << i;
    if (i % 997 == 0) {
      ASSERT_TRUE(sim.directory_consistent()) << "at access " << i;
    }
  }
  ASSERT_TRUE(sim.directory_consistent());
  std::size_t held = 0;
  for (std::uint64_t b = 0; b < 2'048; ++b) held += sim.holders(b);

  const CoopCacheResults& r = sim.results();
  const CoopCacheResults& e = g.expect;
  EXPECT_EQ(r.reads, e.reads);
  EXPECT_EQ(r.writes, e.writes);
  EXPECT_EQ(r.local_hits, e.local_hits);
  EXPECT_EQ(r.remote_client_hits, e.remote_client_hits);
  EXPECT_EQ(r.rack_local_peer_hits, e.rack_local_peer_hits);
  EXPECT_EQ(r.server_mem_hits, e.server_mem_hits);
  EXPECT_EQ(r.disk_reads, e.disk_reads);
  EXPECT_EQ(held, g.held);
}

TEST(CoopCacheGolden, ClientServer) {
  // {reads, writes, local, remote, rack-local remote, server mem, disk}
  replay_golden({Policy::kClientServer, 16, 0,
                 {6205, 815, 2760, 0, 0, 1529, 1916},
                 663});
}

TEST(CoopCacheGolden, GreedyForwarding) {
  replay_golden({Policy::kGreedyForwarding, 16, 0,
                 {6205, 815, 2764, 529, 0, 1211, 1701},
                 693});
}

TEST(CoopCacheGolden, CentrallyCoordinated) {
  replay_golden({Policy::kCentrallyCoordinated, 16, 0,
                 {6205, 815, 1106, 3422, 0, 61, 1616},
                 113});
}

TEST(CoopCacheGolden, NChance) {
  replay_golden({Policy::kNChance, 16, 0,
                 {6205, 815, 2510, 2051, 0, 8, 1636},
                 708});
}

TEST(CoopCacheGolden, NChanceRackAware) {
  replay_golden({Policy::kNChance, 64, 8,
                 {42856, 5924, 17041, 17318, 2680, 6, 8491},
                 1830});
}

}  // namespace
}  // namespace now::coopcache
