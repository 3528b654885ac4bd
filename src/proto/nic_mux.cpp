#include "proto/nic_mux.hpp"

#include <algorithm>
#include <cassert>

namespace now::proto {

std::uint32_t NicMux::register_layer(LayerRx rx) {
  layers_.push_back(std::move(rx));
  return static_cast<std::uint32_t>(layers_.size() - 1);
}

void NicMux::attach_node(os::Node& node, std::uint32_t rx_buffer_bytes) {
  const net::NodeId id = node.id();
  if (id >= nodes_.size()) nodes_.resize(id + 1, nullptr);
  assert(nodes_[id] == nullptr && "node attached twice");
  nodes_[id] = &node;
  // Pre-size here (setup time) so partitioned lanes never grow the vector.
  if (id >= stack_busy_until_.size()) stack_busy_until_.resize(id + 1, 0);
  network_.attach(
      id, [this](net::Packet&& pkt) { on_delivery(std::move(pkt)); },
      rx_buffer_bytes);
}

sim::SimTime NicMux::reserve_stack(net::NodeId id, sim::Duration cpu_time) {
  if (id >= stack_busy_until_.size()) stack_busy_until_.resize(id + 1, 0);
  // The stack is per-node state touched only by that node's own events, so
  // its lane's clock is the right "now" under partitioning.
  const sim::SimTime start =
      std::max(network_.engine_for(id).now(), stack_busy_until_[id]);
  stack_busy_until_[id] = start + cpu_time;
  return stack_busy_until_[id];
}

void NicMux::send(net::Packet pkt) {
  const os::Node* src = node(pkt.src);
  assert(src != nullptr && "send from unattached node");
  if (!src->alive()) return;  // a dead workstation sends nothing
  network_.send(std::move(pkt));
}

void NicMux::on_delivery(net::Packet&& pkt) {
  os::Node* dst = node(pkt.dst);
  assert(dst != nullptr);
  network_.release_rx(pkt.dst, pkt.size_bytes);
  if (!dst->alive()) return;  // NIC is deaf while crashed
  assert(pkt.tag < layers_.size() && "packet for unregistered layer");
  layers_[pkt.tag](std::move(pkt));
}

}  // namespace now::proto
