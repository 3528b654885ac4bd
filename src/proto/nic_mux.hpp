// NIC-level demultiplexer.
//
// One Network delivery handler exists per node; several protocol layers
// (Active Messages, the TCP model, xFS RPC traffic) share the wire.  The
// mux owns the per-node attachment, hands each layer a tag, and routes
// arriving packets by tag.  It also models a dead node's NIC going deaf:
// packets addressed to a crashed workstation vanish, which is what forces
// the timeout/retry and takeover paths above.
#pragma once

#include <functional>
#include <vector>

#include "net/network.hpp"
#include "os/node.hpp"

namespace now::proto {

class NicMux {
 public:
  using LayerRx = std::function<void(net::Packet&&)>;

  explicit NicMux(net::Network& network) : network_(network) {}
  NicMux(const NicMux&) = delete;
  NicMux& operator=(const NicMux&) = delete;

  /// Registers a protocol layer; returns the tag it must stamp on packets.
  std::uint32_t register_layer(LayerRx rx);

  /// Attaches a workstation's NIC to the network.
  void attach_node(os::Node& node, std::uint32_t rx_buffer_bytes = 0);

  /// Injects a packet (pkt.tag must be a registered layer's tag).
  /// Silently dropped if the source node has crashed.
  void send(net::Packet pkt);

  /// Serializes protocol-stack CPU work on a node: reserves `cpu_time` of
  /// stack processing and returns its completion time.  Layers schedule
  /// wire injection at the returned instant, so a host's protocol overhead
  /// — not just the wire — throttles its throughput (the paper's central
  /// measurement: TCP on 155 Mb/s ATM delivers only 78 Mb/s).
  sim::SimTime reserve_stack(net::NodeId id, sim::Duration cpu_time);

  os::Node* node(net::NodeId id) {
    return id < nodes_.size() ? nodes_[id] : nullptr;
  }
  net::Network& network() { return network_; }
  sim::Engine& engine() { return network_.engine(); }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  void on_delivery(net::Packet&& pkt);

  net::Network& network_;
  std::vector<LayerRx> layers_;
  std::vector<os::Node*> nodes_;
  std::vector<sim::SimTime> stack_busy_until_;
};

}  // namespace now::proto
