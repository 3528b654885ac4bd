#include "proto/am.hpp"

#include <cassert>
#include <memory>

namespace now::proto {

AmLayer::AmLayer(NicMux& mux, AmParams params, std::uint64_t seed)
    : mux_(mux), params_(params), rng_(seed, /*stream=*/0x616d6c),
      obs_track_(obs::tracer().track("proto")) {
  assert(params_.window > 0 && params_.mtu_bytes > 0);
  obs_pub_.counter("am.sent", stats_.sent)
      .counter("am.retransmits", stats_.retransmits)
      .counter("am.handled", stats_.handled)
      .counter("am.credit_stalls", stats_.stalled_sends)
      .counter("am.epoch_bumps", stats_.epoch_bumps)
      .counter("am.pair_failures", stats_.pair_failures)
      .summary("am.msg_latency_us", stats_.msg_latency_us);
  tag_ = mux_.register_layer(
      [this](net::Packet&& pkt) { on_packet(std::move(pkt)); });
}

os::Node& AmLayer::node_of(EndpointId id) { return *ep(id).node; }

EndpointId AmLayer::create_endpoint(os::Node& node, Mode mode) {
  const auto id = static_cast<EndpointId>(endpoints_.size());
  Endpoint e;
  e.node = &node;
  e.mode = mode;
  endpoints_.push_back(std::move(e));
  if (mode == Mode::kPolling) {
    const net::NodeId nid = node.id();
    if (nid >= observer_installed_.size()) {
      observer_installed_.resize(nid + 1, false);
    }
    if (!observer_installed_[nid]) {
      observer_installed_[nid] = true;
      node.cpu().add_dispatch_observer(
          [this, nid](os::ProcessId pid) { drain_polling(nid, pid); });
    }
  }
  return id;
}

void AmLayer::set_owner(EndpointId id, os::ProcessId pid) {
  Endpoint& e = ep(id);
  assert(e.mode == Mode::kPolling);
  if (e.owner != os::kNoProcess) {
    auto& owned = pollers_[e.node->id()][e.owner];
    std::erase(owned, id);
  }
  e.owner = pid;
  pollers_[e.node->id()][pid].push_back(id);
}

void AmLayer::register_handler(EndpointId id, HandlerId h, Handler fn) {
  ep(id).handlers[h] = std::move(fn);
}

sim::Duration AmLayer::unloaded_one_way(std::uint32_t bytes,
                                        sim::Duration wire_transit) const {
  return params_.costs.send_overhead(bytes) + wire_transit +
         params_.costs.recv_overhead(bytes);
}

void AmLayer::send(EndpointId src, EndpointId dst, HandlerId h,
                   std::uint32_t bytes, std::any payload,
                   std::function<void()> on_injected) {
  enqueue_fragments(src, dst, h, bytes, std::move(payload),
                    std::move(on_injected));
}

void AmLayer::send_from_process(os::ProcessId pid, EndpointId src,
                                EndpointId dst, HandlerId h,
                                std::uint32_t bytes, std::any payload,
                                std::function<void()> then) {
  // The injection callback may fire synchronously (window open) or later
  // (credits exhausted), so the flag must outlive this frame.
  auto injected = std::make_shared<bool>(false);
  enqueue_fragments(src, dst, h, bytes, std::move(payload),
                    [injected] { *injected = true; });
  if (*injected) {
    then();
    return;
  }
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.stalled_sends;
  }
  obs::tracer().instant(ep(src).node->id(), obs_track_, "credit_stall");
  // Spin-poll until the window opens.  The process stays runnable — and
  // therefore keeps draining its own endpoint — which is both what real
  // user-level AM senders do and what prevents window-credit deadlock
  // among mutually-sending ranks.
  spin_until_injected(pid, src, injected, std::move(then));
}

void AmLayer::spin_until_injected(os::ProcessId pid, EndpointId src,
                                  std::shared_ptr<bool> injected,
                                  std::function<void()> then) {
  os::Cpu& cpu = ep(src).node->cpu();
  cpu.compute(pid, params_.send_spin_slice,
              [this, pid, src, injected = std::move(injected),
               then = std::move(then)]() mutable {
                if (*injected) {
                  then();
                  return;
                }
                spin_until_injected(pid, src, std::move(injected),
                                    std::move(then));
              });
}

void AmLayer::enqueue_fragments(EndpointId src, EndpointId dst, HandlerId h,
                                std::uint32_t bytes, std::any payload,
                                std::function<void()> on_injected) {
  PairTx& tx = ep(src).tx[dst];
  tx.failed = false;  // a fresh send retries a previously failed pair
  const std::uint32_t nfrags =
      bytes == 0 ? 1 : (bytes + params_.mtu_bytes - 1) / params_.mtu_bytes;
  std::uint32_t remaining = bytes;
  const sim::SimTime t0 = engine_of(*ep(src).node).now();
  for (std::uint32_t i = 0; i < nfrags; ++i) {
    Fragment f;
    f.handler = h;
    f.frag_bytes = std::min(remaining, params_.mtu_bytes);
    if (bytes == 0) f.frag_bytes = 0;
    remaining -= f.frag_bytes;
    f.msg_bytes = bytes;
    f.last = (i + 1 == nfrags);
    f.injected_at = t0;
    if (f.last) {
      f.payload = std::move(payload);
      f.on_injected = std::move(on_injected);
    }
    tx.pending.push_back(std::move(f));
  }
  pump_window(src, dst, tx);
}

void AmLayer::pump_window(EndpointId src, EndpointId dst, PairTx& tx) {
  while (!tx.pending.empty() &&
         tx.next_seq - tx.base < params_.window) {
    Fragment f = std::move(tx.pending.front());
    tx.pending.pop_front();
    f.seq = tx.next_seq++;
    transmit(src, dst, f);
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.sent;
    }
    if (f.on_injected) {
      auto cb = std::move(f.on_injected);
      f.on_injected = nullptr;
      tx.unacked.push_back(std::move(f));
      cb();
    } else {
      tx.unacked.push_back(std::move(f));
    }
  }
  if (!tx.unacked.empty() && tx.timer == 0) arm_timer(src, dst, tx);
}

void AmLayer::transmit(EndpointId src, EndpointId dst, const Fragment& f) {
  os::Node& sn = *ep(src).node;
  if (!sn.alive()) return;
  const sim::Duration o_s = params_.costs.send_overhead(f.frag_bytes);
  sn.cpu().steal(o_s);
  const sim::SimTime inject_at = mux_.reserve_stack(sn.id(), o_s);

  WireData d{src,          dst,         ep(src).tx[dst].epoch,
             f.seq,        f.handler,   f.frag_bytes,
             f.msg_bytes,  f.last,      f.payload,
             f.injected_at};
  net::Packet pkt;
  pkt.src = sn.id();
  pkt.dst = ep(dst).node->id();
  pkt.size_bytes = f.frag_bytes + 16;  // AM header
  pkt.tag = tag_;
  pkt.payload = std::move(d);
  engine_of(sn).schedule_at(inject_at, [this, p = std::move(pkt)]() mutable {
    mux_.send(std::move(p));
  });
}

void AmLayer::arm_timer(EndpointId src, EndpointId dst, PairTx& tx) {
  // The timer lives on the sender's lane: on_timeout touches only tx state.
  tx.timer = engine_of(*ep(src).node)
                 .schedule_in(params_.retry_timeout,
                              [this, src, dst] { on_timeout(src, dst); });
}

void AmLayer::on_timeout(EndpointId src, EndpointId dst) {
  const auto it = ep(src).tx.find(dst);
  if (it == ep(src).tx.end()) return;
  PairTx& tx = it->second;
  tx.timer = 0;
  if (tx.unacked.empty()) return;
  if (!ep(src).node->alive()) {
    // The sender itself died; abandon the window.  The receiver still
    // holds this generation's in-order state, so whatever the sender sends
    // after its restart must open a new one.
    new_epoch(src, tx);
    return;
  }
  if (++tx.timeouts > params_.max_retries) {
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.pair_failures;
    }
    tx.failed = true;
    new_epoch(src, tx);
    if (on_failure_) on_failure_(src, dst);
    return;
  }
  // Go-back-N: retransmit everything outstanding.
  obs::tracer().instant(ep(src).node->id(), obs_track_, "go_back_n");
  for (const Fragment& f : tx.unacked) {
    transmit(src, dst, f);
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.retransmits;
    }
  }
  arm_timer(src, dst, tx);
}

void AmLayer::new_epoch(EndpointId src, PairTx& tx) {
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.epoch_bumps;
  }
  obs::tracer().instant(ep(src).node->id(), obs_track_, "epoch_bump");
  tx.unacked.clear();
  tx.pending.clear();
  // New connection generation: the next send starts at seq 0 under a
  // fresh epoch, so a peer holding stale in-order state (a reboot, or
  // simply having missed everything) resynchronizes.
  ++tx.epoch;
  tx.base = 0;
  tx.next_seq = 0;
  tx.timeouts = 0;
}

void AmLayer::on_packet(net::Packet&& pkt) {
  if (auto* ack = std::any_cast<WireAck>(&pkt.payload)) {
    os::Node& n = *mux_.node(pkt.dst);
    n.cpu().steal(params_.costs.recv_fixed / params_.ack_cost_divisor);
    on_ack(*ack);
    return;
  }
  auto* data = std::any_cast<WireData>(&pkt.payload);
  assert(data != nullptr && "unknown AM packet");
  on_data(std::move(*data));
}

void AmLayer::on_data(WireData&& d) {
  if (params_.loss_probability > 0.0 &&
      rng_.bernoulli(params_.loss_probability)) {
    sim::SpinGuard g(stats_lock_);
    ++stats_.injected_losses;
    return;
  }
  Endpoint& e = ep(d.dst_ep);
  PairRx& rx = e.rx[d.src_ep];
  if (d.epoch != rx.epoch) {
    if (d.epoch < rx.epoch) return;  // stale generation: drop
    // The sender restarted this pair: resynchronize.
    rx.epoch = d.epoch;
    rx.delivered = 0;
    rx.handled = 0;
    rx.last_acked = 0;
    rx.partial_bytes = 0;
  }
  if (d.seq != rx.delivered) {
    // Out of order: either a duplicate (seq < delivered) or a gap after a
    // loss.  Either way go-back-N will resend; re-advertise progress so a
    // sender that missed an ack can move on.
    if (d.seq < rx.delivered) {
      send_ack(d.dst_ep, d.src_ep, rx.epoch, rx.handled);
    }
    return;
  }
  ++rx.delivered;
  if (e.mode == Mode::kInterrupt ||
      e.node->cpu().current() == e.owner) {
    // Interrupt endpoints handle immediately; polling endpoints whose owner
    // is on the CPU right now are actively polling.
    handle_now(e, d.dst_ep, std::move(d));
  } else {
    e.rx_queue.push_back(std::move(d));
  }
}

void AmLayer::handle_now(Endpoint& e, EndpointId dst_ep, WireData&& d) {
  const sim::Duration o_r = params_.costs.recv_overhead(d.frag_bytes);
  e.node->cpu().steal(o_r);
  PairRx& rx = e.rx[d.src_ep];
  ++rx.handled;

  bool run_handler = false;
  AmMessage msg;
  if (d.msg_bytes > params_.mtu_bytes) {
    // Bulk transfer: the handler fires once the final fragment lands.
    rx.partial_bytes += d.frag_bytes;
    if (d.last) {
      assert(rx.partial_bytes == d.msg_bytes);
      rx.partial_bytes = 0;
      run_handler = true;
    }
  } else {
    run_handler = true;
  }

  // Return credit (coalesced: one ack event flushes all handling that
  // happened at this instant).
  if (!rx.ack_flush_pending) {
    rx.ack_flush_pending = true;
    const EndpointId src_ep = d.src_ep;
    engine_of(*e.node).schedule_in(0, [this, src_ep, dst_ep] {
      PairRx& r = ep(dst_ep).rx[src_ep];
      r.ack_flush_pending = false;
      if (r.handled != r.last_acked) {
        r.last_acked = r.handled;
        send_ack(dst_ep, src_ep, r.epoch, r.handled);
      }
    });
  }

  if (run_handler) {
    msg.src_ep = d.src_ep;
    msg.bytes = d.msg_bytes;
    msg.payload = std::move(d.payload);
    // The handler body runs once the receiver has spent its overhead
    // processing the message, so end-to-end times include o_recv.
    os::Node* node = e.node;
    const HandlerId h = d.handler;
    const sim::SimTime injected_at = d.injected_at;
    engine_of(*node).schedule_in(
        o_r, [this, node, dst_ep, h, injected_at, m = std::move(msg)] {
          if (!node->alive()) return;
          const sim::SimTime at = engine_of(*node).now();
          {
            sim::SpinGuard g(stats_lock_);
            ++stats_.handled;
            stats_.msg_latency_us.add(sim::to_us(at - injected_at));
          }
          // Full message lifetime, injection to handler start.
          obs::tracer().complete(node->id(), obs_track_, "am.msg", injected_at,
                                 at);
          Endpoint& e2 = ep(dst_ep);
          const auto it = e2.handlers.find(h);
          assert(it != e2.handlers.end() && "no handler registered");
          it->second(m);
        });
  }
}

void AmLayer::send_ack(EndpointId from_ep, EndpointId to_ep,
                       std::uint32_t epoch, std::uint32_t cum_seq) {
  os::Node& n = *ep(from_ep).node;
  if (!n.alive()) return;
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.acks;
  }
  const sim::Duration cost =
      params_.costs.send_fixed / params_.ack_cost_divisor;
  n.cpu().steal(cost);
  const sim::SimTime at = mux_.reserve_stack(n.id(), cost);
  net::Packet pkt;
  pkt.src = n.id();
  pkt.dst = ep(to_ep).node->id();
  pkt.size_bytes = 16;
  pkt.tag = tag_;
  pkt.payload = WireAck{from_ep, to_ep, epoch, cum_seq};
  engine_of(n).schedule_at(at, [this, p = std::move(pkt)]() mutable {
    mux_.send(std::move(p));
  });
}

void AmLayer::on_ack(const WireAck& a) {
  // Runs at ack delivery on the data sender's node — the lane owning tx.
  const auto it = ep(a.dst_ep).tx.find(a.src_ep);
  if (it == ep(a.dst_ep).tx.end()) return;
  PairTx& tx = it->second;
  if (a.epoch != tx.epoch) return;  // ack for a dead generation
  bool advanced = false;
  while (!tx.unacked.empty() && tx.base < a.cum_seq) {
    tx.unacked.pop_front();
    ++tx.base;
    advanced = true;
  }
  if (advanced) {
    tx.timeouts = 0;
    if (tx.timer != 0) {
      sim::Engine& eng = engine_of(*ep(a.dst_ep).node);
      if (tx.unacked.empty()) {
        eng.cancel(tx.timer);
        tx.timer = 0;
      } else {
        // Frames still in flight: restart the retransmit clock by moving the
        // pending timer in place — its closure already names this pair, so
        // cancel + schedule would rebuild an identical event.
        tx.timer = eng.reschedule_in(tx.timer, params_.retry_timeout);
        assert(tx.timer != 0);
      }
    }
    pump_window(a.dst_ep, a.src_ep, tx);
  }
}

void AmLayer::drain_polling(net::NodeId node, os::ProcessId pid) {
  const auto nit = pollers_.find(node);
  if (nit == pollers_.end()) return;
  const auto pit = nit->second.find(pid);
  if (pit == nit->second.end()) return;
  for (const EndpointId id : pit->second) {
    Endpoint& e = ep(id);
    while (!e.rx_queue.empty()) {
      WireData d = std::move(e.rx_queue.front());
      e.rx_queue.pop_front();
      handle_now(e, id, std::move(d));
    }
  }
}

}  // namespace now::proto
