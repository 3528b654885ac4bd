#include "net/presets.hpp"

#include <limits>

namespace now::net {

FabricParams ethernet_10mbps() {
  FabricParams p;
  p.link_bandwidth_bps = 10e6;
  p.latency = 5 * sim::kMicrosecond;  // propagation + repeaters
  p.header_bytes = 18;                // Ethernet framing
  return p;
}

FabricParams atm_155mbps() {
  FabricParams p;
  p.link_bandwidth_bps = 155e6;
  // Switch latency 10-100 us depending on configuration, plus adapter
  // latency up to 100 us; we take a mid-range switch + adapter.
  p.latency = 50 * sim::kMicrosecond;
  p.cell_bytes = 53;
  p.cell_payload_bytes = 48;
  p.cut_through = true;  // cells pipeline through the switch
  return p;
}

FabricParams fddi_medusa() {
  FabricParams p;
  p.link_bandwidth_bps = 100e6;
  p.latency = 8 * sim::kMicrosecond;  // network + adapter (Martin, HPAM)
  p.header_bytes = 28;                // FDDI framing
  p.cut_through = true;
  return p;
}

FabricParams myrinet() {
  FabricParams p;
  p.link_bandwidth_bps = 640e6;
  p.latency = 1 * sim::kMicrosecond;  // short wires
  p.header_bytes = 8;
  p.cut_through = true;               // wormhole routing
  return p;
}

HierarchicalParams single_switch(FabricParams fabric) {
  HierarchicalParams p;
  p.fabric = fabric;
  p.topo.nodes_per_rack = std::numeric_limits<std::uint32_t>::max();
  p.topo.racks = 1;
  return p;
}

HierarchicalParams building_now(std::uint32_t racks,
                                std::uint32_t nodes_per_rack,
                                double oversubscription) {
  HierarchicalParams p;
  p.fabric = myrinet();  // the paper's killer network, per hop
  p.topo.racks = racks;
  p.topo.nodes_per_rack = nodes_per_rack;
  if (oversubscription < 1.0) oversubscription = 1.0;
  const double uplinks =
      static_cast<double>(nodes_per_rack) / oversubscription;
  p.topo.uplinks_per_rack =
      uplinks < 1.0 ? 1u : static_cast<std::uint32_t>(uplinks + 0.5);
  return p;
}

FabricParams cm5_fabric() {
  FabricParams p;
  p.link_bandwidth_bps = 160e6;       // ~20 MB/s per link
  p.latency = 4 * sim::kMicrosecond;  // across 1,024 processors
  p.header_bytes = 4;
  p.cut_through = true;
  return p;
}

}  // namespace now::net
