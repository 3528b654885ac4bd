// Fabric parameter presets for the networks the paper measures or cites.
//
// Latency numbers follow the text: ATM switch latency 10-100 us depending on
// configuration plus up to 100 us of adapter latency; Medusa FDDI adds 8 us
// of network+adapter latency; the CM-5 data network crosses 1,024 nodes in
// under 4 us.
#pragma once

#include <cstdint>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace now::net {

/// 10 Mb/s shared Ethernet, the departmental LAN of 1994.
FabricParams ethernet_10mbps();

/// 155 Mb/s switched ATM (OC-3) with 53-byte cells, mid-range switch.
FabricParams atm_155mbps();

/// Medusa FDDI: 100 Mb/s, network + adapter latency ~8 us (Martin, HPAM).
FabricParams fddi_medusa();

/// Myrinet-class retargeted MPP network: 640 Mb/s links, ~1 us fabric.
FabricParams myrinet();

/// CM-5 data network: 4 us across the machine, ~20 MB/s per link.
FabricParams cm5_fabric();

/// A flat switched LAN or MPP interconnect (any preset above but Ethernet):
/// one switch with every node on it, i.e. a fat tree of one rack and no
/// spine.  Feed it to HierarchicalNetwork.
HierarchicalParams single_switch(FabricParams fabric);

/// The building-wide NOW: `racks` racks of `nodes_per_rack` workstations
/// under edge switches, Myrinet-class 640 Mb/s cut-through links with 1 us
/// per switch crossing, and enough spine uplinks per rack for an
/// `oversubscription`:1 ratio (1.0 = non-blocking fat tree; commodity
/// buildings run 4:1 to 8:1).  Feed it to HierarchicalNetwork or
/// ClusterConfig{fabric = Fabric::kBuildingNow}.
HierarchicalParams building_now(std::uint32_t racks,
                                std::uint32_t nodes_per_rack,
                                double oversubscription);

}  // namespace now::net
