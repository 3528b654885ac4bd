// Unit tests for the fabric models.
#include <gtest/gtest.h>

#include "net/hierarchical.hpp"
#include "net/network.hpp"
#include "net/placement.hpp"
#include "net/presets.hpp"
#include "net/shared_bus.hpp"
#include "sim/engine.hpp"

namespace now::net {
namespace {

using sim::kMicrosecond;

Packet make_packet(NodeId src, NodeId dst, std::uint32_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(FabricParams, SerializationScalesWithBytes) {
  FabricParams p;
  p.link_bandwidth_bps = 100e6;  // 100 Mb/s -> 80 ns/byte
  EXPECT_EQ(p.serialization(1000), sim::from_us(80));
  EXPECT_EQ(p.serialization(0), 0);
}

TEST(FabricParams, HeaderBytesAdded) {
  FabricParams p;
  p.link_bandwidth_bps = 8e6;  // 1 us per byte
  p.header_bytes = 20;
  EXPECT_EQ(p.serialization(100), sim::from_us(120));
}

TEST(FabricParams, AtmCellsRoundUp) {
  FabricParams p = atm_155mbps();
  // 49 bytes of payload needs two 53-byte cells.
  const auto one_cell = p.serialization(48);
  const auto two_cells = p.serialization(49);
  EXPECT_GT(two_cells, one_cell);
  EXPECT_EQ(two_cells, p.serialization(96));
}

TEST(SwitchedNetwork, UnloadedTransitMatchesModel) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, single_switch(fddi_medusa()));
  sim::SimTime delivered_at = -1;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { delivered_at = eng.now(); });
  net.send(make_packet(0, 1, 1024));
  eng.run();
  EXPECT_EQ(delivered_at, net.unloaded_transit(0, 1, 1024));
}

TEST(SwitchedNetwork, UplinkSerializesBackToBackSends) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;  // 1 us/byte
  p.latency = 0;
  HierarchicalNetwork net(eng, single_switch(p));
  std::vector<sim::SimTime> times;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { times.push_back(eng.now()); });
  net.send(make_packet(0, 1, 100));
  net.send(make_packet(0, 1, 100));
  eng.run();
  ASSERT_EQ(times.size(), 2u);
  // Second packet waits for the first's serialization on the uplink, then
  // also queues behind it on the downlink.
  EXPECT_EQ(times[0], sim::from_us(200));
  EXPECT_EQ(times[1], sim::from_us(300));
}

TEST(SwitchedNetwork, DisjointPairsDontContend) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;
  p.latency = 0;
  HierarchicalNetwork net(eng, single_switch(p));
  std::vector<sim::SimTime> times(4, -1);
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&, n](Packet&&) { times[n] = eng.now(); });
  }
  net.send(make_packet(0, 1, 100));
  net.send(make_packet(2, 3, 100));
  eng.run();
  // Switched fabric: both transfers complete in one serialization x2.
  EXPECT_EQ(times[1], times[3]);
}

TEST(SwitchedNetwork, DownlinkContentionQueuesFanIn) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;
  p.latency = 0;
  HierarchicalNetwork net(eng, single_switch(p));
  std::vector<sim::SimTime> arrivals;
  for (NodeId n = 0; n < 3; ++n) {
    net.attach(n, [&](Packet&&) { arrivals.push_back(eng.now()); });
  }
  // Two senders target node 2 simultaneously: the second transfer must
  // queue on node 2's downlink.
  net.send(make_packet(0, 2, 100));
  net.send(make_packet(1, 2, 100));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::from_us(200));
  EXPECT_EQ(arrivals[1], sim::from_us(300));
}

// Delivery instants of the flat switched fabrics, pinned in nanoseconds: a
// 4-sender fan-in and back-to-back sends of mixed sizes (empty, under and
// over one ATM cell, 8 KB) on every switched preset plus one
// store-and-forward fabric.  The values were recorded from the flat
// switch when it was a class of its own; a one-rack tree reproduces them.
struct FlatTimingCase {
  const char* name;
  FabricParams params;
  std::vector<sim::SimTime> delivered;  // in tag order
};

FabricParams store_and_forward() {
  FabricParams p;
  p.link_bandwidth_bps = 100e6;
  p.latency = 10 * kMicrosecond;
  p.header_bytes = 20;
  return p;
}

std::vector<sim::SimTime> flat_fabric_delivery_instants(FabricParams p) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, single_switch(p));
  std::vector<sim::SimTime> at(12, -1);
  for (NodeId n = 0; n < 7; ++n) {
    net.attach(n, [&](Packet&& pkt) { at[pkt.tag] = eng.now(); });
  }
  std::uint32_t tag = 0;
  const auto send = [&](NodeId src, NodeId dst, std::uint32_t bytes) {
    Packet pkt = make_packet(src, dst, bytes);
    pkt.tag = tag++;
    net.send(std::move(pkt));
  };
  // Fan-in: four senders target node 0 at t = 0 and queue on its downlink.
  send(1, 0, 0);
  send(2, 0, 40);
  send(3, 0, 100);
  send(4, 0, 8192);
  // Back to back from one sender: each packet waits on node 5's uplink.
  send(5, 6, 8192);
  send(5, 6, 0);
  send(5, 6, 100);
  send(5, 6, 40);
  // Later sends land while the fan-in still holds node 0's downlink; node
  // 0's own uplink is independent of it (full duplex).
  eng.schedule_at(30 * kMicrosecond, [&] {
    send(1, 0, 8192);
    send(0, 1, 40);
    send(6, 0, 100);
    send(5, 6, 8192);
  });
  eng.run();
  return at;
}

TEST(FlatFabricTiming, DeliveryInstantsArePinned) {
  const std::vector<FlatTimingCase> cases = {
      {"atm_155mbps",
       atm_155mbps(),
       {52735, 55470, 63676, 531443, 517767, 520502, 528708, 531443, 999210,
        82735, 1007416, 999210}},
      {"fddi_medusa",
       fddi_medusa(),
       {10240, 15680, 25920, 683520, 665600, 667840, 678080, 683520,
        1341120, 43440, 1351360, 1341120}},
      {"myrinet",
       myrinet(),
       {1100, 1700, 3050, 105550, 103500, 103600, 104950, 105550, 208050,
        31600, 209400, 208050}},
      {"cm5_fabric",
       cm5_fabric(),
       {4200, 6400, 11600, 421400, 413800, 414000, 419200, 421400, 831200,
        36200, 836400, 831200}},
      {"store_and_forward",
       store_and_forward(),
       {13200, 19600, 29200, 1323920, 1323920, 1325520, 1335120, 1339920,
        1980880, 49600, 1990480, 1996880}},
  };
  for (const FlatTimingCase& c : cases) {
    EXPECT_EQ(flat_fabric_delivery_instants(c.params), c.delivered)
        << c.name;
  }
}

TEST(SharedBus, SendersShareOneMedium) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;
  p.latency = 0;
  SharedBusNetwork net(eng, p);
  std::vector<sim::SimTime> arrivals;
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&](Packet&&) { arrivals.push_back(eng.now()); });
  }
  // Disjoint pairs STILL contend on Ethernet — the defining difference
  // from the switched fabric.
  net.send(make_packet(0, 1, 100));
  net.send(make_packet(2, 3, 100));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], sim::from_us(100));
}

TEST(SharedBus, UtilizationTracksLoad) {
  sim::Engine eng;
  SharedBusNetwork net(eng, ethernet_10mbps());
  net.attach(0, [](Packet&&) {});
  net.attach(1, [](Packet&&) {});
  for (int i = 0; i < 50; ++i) net.send(make_packet(0, 1, 1500));
  eng.run();
  EXPECT_GT(net.utilization(), 0.5);
  EXPECT_LE(net.utilization(), 1.0);
}

TEST(Network, RxBufferOverflowDrops) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, single_switch(fddi_medusa()));
  int delivered = 0;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { ++delivered; }, /*rx_buffer_bytes=*/2048);
  for (int i = 0; i < 4; ++i) net.send(make_packet(0, 1, 1024));
  eng.run();
  // Nothing released the buffer, so only two packets fit.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().packets_dropped, 2u);
}

TEST(Network, ReleaseRxMakesRoomAgain) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, single_switch(fddi_medusa()));
  int delivered = 0;
  net.attach(0, [](Packet&&) {});
  net.attach(1,
             [&](Packet&& pkt) {
               ++delivered;
               net.release_rx(1, pkt.size_bytes);  // consume immediately
             },
             /*rx_buffer_bytes=*/2048);
  for (int i = 0; i < 4; ++i) net.send(make_packet(0, 1, 1024));
  eng.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(net.stats().packets_dropped, 0u);
}

TEST(Network, StatsCountTraffic) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, single_switch(myrinet()));
  net.attach(0, [](Packet&&) {});
  net.attach(1, [](Packet&&) {});
  net.send(make_packet(0, 1, 4096));
  net.send(make_packet(1, 0, 100));
  eng.run();
  EXPECT_EQ(net.stats().packets_sent, 2u);
  EXPECT_EQ(net.stats().packets_delivered, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 4196u);
}

TEST(Presets, RelativeSpeeds) {
  // The paper's ordering: MPP fabrics << switched LANs << shared Ethernet
  // for an 8 KB transfer.
  sim::Engine eng;
  HierarchicalNetwork mpp(eng, single_switch(cm5_fabric()));
  HierarchicalNetwork atm(eng, single_switch(atm_155mbps()));
  SharedBusNetwork eth(eng, ethernet_10mbps());
  const auto t_mpp = mpp.unloaded_transit(0, 1, 8192);
  const auto t_atm = atm.unloaded_transit(0, 1, 8192);
  const auto t_eth = eth.unloaded_transit(8192);
  EXPECT_LT(t_mpp, t_atm);
  EXPECT_LT(t_atm, t_eth);
  // Table 2's data-transfer row: ~6,250 us on Ethernet vs ~400 us on ATM
  // for 8 KB; our wire models should land in that regime.
  EXPECT_NEAR(sim::to_us(t_eth), 6'250, 800);
  // Cut-through ATM: one ~400-470 us serialization plus switch latency.
  EXPECT_NEAR(sim::to_us(t_atm), 500, 150);
}

// ---------------------------------------------------------------------------
// Client placement helpers (building-scale benches)

TEST(Placement, RackLocalSkipsTheServerAndCycles) {
  TopologyParams topo;
  topo.nodes_per_rack = 4;
  topo.racks = 3;
  // Server mid-rack: slots are the rack's other nodes in increasing id
  // order, reused round-robin once the rack is exhausted.
  const auto c = rack_local_clients(topo, 5, 7);
  const std::vector<NodeId> want{4, 6, 7, 4, 6, 7, 4};
  EXPECT_EQ(c, want);
  for (const NodeId n : c) {
    EXPECT_EQ(n / 4, 5u / 4) << "left the server's rack";
    EXPECT_NE(n, 5u);
  }
}

TEST(Placement, SpreadDealsOnePerRackThenWraps) {
  TopologyParams topo;
  topo.nodes_per_rack = 4;
  topo.racks = 4;
  // Server in rack 0: racks 1..3 get one client each, then a second each,
  // and the slot index advances every full pass.
  const auto c = spread_clients(topo, 0, 8);
  const std::vector<NodeId> want{4, 8, 12, 5, 9, 13, 6, 10};
  EXPECT_EQ(c, want);
  for (const NodeId n : c) EXPECT_NE(n / 4, 0u) << "landed in server rack";
}

TEST(Placement, SpreadSkipsAnInteriorServerRack) {
  TopologyParams topo;
  topo.nodes_per_rack = 2;
  topo.racks = 3;
  const auto c = spread_clients(topo, 3, 4);  // server in rack 1
  const std::vector<NodeId> want{0, 4, 1, 5};
  EXPECT_EQ(c, want);
}

TEST(Placement, HelpersArePureFunctions) {
  TopologyParams topo;
  topo.nodes_per_rack = 32;
  topo.racks = 32;
  EXPECT_EQ(rack_local_clients(topo, 0, 100),
            rack_local_clients(topo, 0, 100));
  EXPECT_EQ(spread_clients(topo, 0, 2048), spread_clients(topo, 0, 2048));
  // 2048 clients over 31 non-server racks x 32 slots: everything stays in
  // bounds and off the server's rack.
  for (const NodeId n : spread_clients(topo, 0, 2048)) {
    EXPECT_LT(n, 1024u);
    EXPECT_NE(n / 32, 0u);
  }
}

}  // namespace
}  // namespace now::net
