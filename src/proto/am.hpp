// Active Messages (von Eicken et al. 1992), the paper's low-overhead
// communication layer.
//
// An endpoint lives on one node and owns a table of handlers.  A message
// names a destination endpoint and handler; on arrival the handler runs with
// the message's payload.  Two endpoint modes capture the paper's two worlds:
//
//  * kInterrupt — the handler runs as soon as the message is delivered,
//    charging receive overhead as interrupt (stolen) CPU time.  System
//    services (GLUnix daemons, xFS managers, the network-RAM pager) use
//    this.
//  * kPolling — faithful user-level AM: handlers only run while the owning
//    *process* is scheduled (the process polls the NIC from its compute
//    loop).  If the process is descheduled, messages sit in the endpoint
//    queue, credits are not returned, and senders stall.  This is the entire
//    mechanism behind Figure 4: local scheduling deschedules receivers, and
//    Connect/EM3D-style programs collapse.
//
// Reliability is go-back-N per endpoint pair with cumulative acks; the ack
// doubles as credit return, so flow control is tied to *handling* (not mere
// delivery), exactly like the CM-5 AM request/reply discipline the paper
// describes.  Loss can be injected to exercise the timeout/retry path.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/costs.hpp"
#include "proto/nic_mux.hpp"
#include "sim/random.hpp"
#include "sim/spinlock.hpp"
#include "sim/stats.hpp"

namespace now::proto {

using EndpointId = std::uint32_t;
using HandlerId = std::uint16_t;
inline constexpr EndpointId kInvalidEndpoint = 0xffffffffu;

struct AmParams {
  ProtocolCosts costs = am_medusa();
  /// Per-endpoint-pair send window (messages in flight before blocking).
  std::uint32_t window = 16;
  /// Fragment size for bulk transfers.
  std::uint32_t mtu_bytes = 8192;
  /// Go-back-N retransmission timeout.  Must exceed the worst-case queueing
  /// a healthy window can see (wide bulk fan-outs share the sender's link),
  /// or spurious go-back-N retransmissions melt the wire.
  sim::Duration retry_timeout = 100 * sim::kMillisecond;
  /// Give up after this many consecutive timeouts of one window
  /// (the destination node is presumed crashed).
  std::uint32_t max_retries = 25;
  /// Injected packet-loss probability, for exercising retry in tests.
  double loss_probability = 0.0;
  /// Spin-poll granularity for senders waiting on window credits.  A
  /// credit-starved sender busy-polls its endpoint (it must: draining
  /// incoming messages is what lets its peers' credits — and eventually
  /// its own — flow again).
  sim::Duration send_spin_slice = 200 * sim::kMicrosecond;
  /// Fixed cost divisor for acks/credit packets relative to data messages.
  std::uint32_t ack_cost_divisor = 4;
};

/// What a handler receives.
struct AmMessage {
  EndpointId src_ep = kInvalidEndpoint;
  std::uint32_t bytes = 0;
  std::any payload;
};

struct AmStats {
  std::uint64_t sent = 0;        // fragments injected (first transmission)
  std::uint64_t retransmits = 0;
  std::uint64_t handled = 0;     // messages whose handler ran
  std::uint64_t acks = 0;
  std::uint64_t injected_losses = 0;
  std::uint64_t stalled_sends = 0;  // sends that waited for window space
  std::uint64_t pair_failures = 0;  // windows that exhausted max_retries
  std::uint64_t epoch_bumps = 0;    // connection generations abandoned
  /// Inject-to-handled latency of whole messages, microseconds.
  sim::Summary msg_latency_us;
};

class AmLayer {
 public:
  enum class Mode : std::uint8_t { kInterrupt, kPolling };
  using Handler = std::function<void(const AmMessage&)>;
  /// Called when a window gives up after max_retries (dest presumed dead).
  using FailureHandler = std::function<void(EndpointId src, EndpointId dst)>;

  AmLayer(NicMux& mux, AmParams params, std::uint64_t seed = 1);
  AmLayer(const AmLayer&) = delete;
  AmLayer& operator=(const AmLayer&) = delete;

  /// Creates an endpoint on `node`.  Polling endpoints must be given an
  /// owner process before any traffic arrives.
  EndpointId create_endpoint(os::Node& node, Mode mode);

  /// Binds a polling endpoint to the process that polls it.
  void set_owner(EndpointId ep, os::ProcessId pid);

  /// Installs `fn` for handler slot `h` on endpoint `ep`.
  void register_handler(EndpointId ep, HandlerId h, Handler fn);

  /// Sends `bytes` from `src` to `dst`, running handler `h` there.  Callable
  /// from any event context; sender overhead is charged as stolen (system)
  /// CPU time on the source node.  `on_injected`, if given, fires when the
  /// message enters the send window (use it to build blocking sends).
  void send(EndpointId src, EndpointId dst, HandlerId h, std::uint32_t bytes,
            std::any payload, std::function<void()> on_injected = nullptr);

  /// Blocking send for application processes: charges sender overhead as
  /// *process* compute time, waits for window space if the pair's credits
  /// are exhausted, then calls `then` from the process's context.
  void send_from_process(os::ProcessId pid, EndpointId src, EndpointId dst,
                         HandlerId h, std::uint32_t bytes, std::any payload,
                         std::function<void()> then);

  void set_failure_handler(FailureHandler fn) { on_failure_ = std::move(fn); }

  const AmParams& params() const { return params_; }
  const AmStats& stats() const { return stats_; }
  os::Node& node_of(EndpointId ep);
  sim::Engine& engine() { return mux_.engine(); }
  /// The engine `n`'s events run on (its partition lane, or the cluster
  /// engine serially).  Every now()/schedule in this layer — and in layers
  /// above, like RPC — is per-node.
  sim::Engine& engine_of(os::Node& n) {
    return mux_.network().engine_for(n.id());
  }

  /// Unloaded one-way small-message time (overhead + wire) for reporting:
  /// o_send + transit + o_recv, assuming an interrupt endpoint.
  sim::Duration unloaded_one_way(std::uint32_t bytes,
                                 sim::Duration wire_transit) const;

 private:
  struct Fragment {
    std::uint32_t seq = 0;
    HandlerId handler = 0;
    std::uint32_t frag_bytes = 0;
    std::uint32_t msg_bytes = 0;
    bool last = false;
    std::any payload;  // carried on the last fragment only
    sim::SimTime injected_at = 0;
    std::function<void()> on_injected;
  };

  struct WireData {
    EndpointId src_ep;
    EndpointId dst_ep;
    std::uint32_t epoch;
    std::uint32_t seq;
    HandlerId handler;
    std::uint32_t frag_bytes;
    std::uint32_t msg_bytes;
    bool last;
    std::any payload;
    sim::SimTime injected_at;
  };

  struct WireAck {
    EndpointId src_ep;  // endpoint acknowledging (the data receiver)
    EndpointId dst_ep;  // endpoint being acknowledged (the data sender)
    std::uint32_t epoch;
    std::uint32_t cum_seq;
  };

  struct PairTx {
    /// Connection generation: bumped when a window gives up, so a peer
    /// that kept stale in-order state (or a rebooted one) resynchronizes.
    std::uint32_t epoch = 0;
    std::uint32_t next_seq = 0;
    std::uint32_t base = 0;  // oldest unacked
    std::deque<Fragment> unacked;
    std::deque<Fragment> pending;  // waiting for window space
    sim::EventId timer = 0;
    std::uint32_t timeouts = 0;
    bool failed = false;
  };

  struct PairRx {
    std::uint32_t epoch = 0;
    std::uint32_t delivered = 0;   // next in-order seq expected on the wire
    std::uint32_t handled = 0;     // fragments consumed by handlers so far
    std::uint32_t last_acked = 0;  // handled value last advertised
    std::uint64_t partial_bytes = 0;  // of the bulk message being reassembled
    bool ack_flush_pending = false;
  };

  // Pair state lives inside the endpoint whose lane mutates it, so a
  // partitioned run never touches these maps from two lanes: tx is driven
  // by the data sender (sends, timers, acks arriving back at the sender's
  // node) and rx by the data receiver.
  struct Endpoint {
    os::Node* node = nullptr;
    Mode mode = Mode::kInterrupt;
    os::ProcessId owner = os::kNoProcess;
    std::unordered_map<HandlerId, Handler> handlers;
    // Polling endpoints: delivered-but-unhandled messages.
    std::deque<WireData> rx_queue;
    std::unordered_map<EndpointId, PairTx> tx;  // keyed by destination ep
    std::unordered_map<EndpointId, PairRx> rx;  // keyed by source ep
  };

  Endpoint& ep(EndpointId id) { return endpoints_[id]; }
  void enqueue_fragments(EndpointId src, EndpointId dst, HandlerId h,
                         std::uint32_t bytes, std::any payload,
                         std::function<void()> on_injected);
  void spin_until_injected(os::ProcessId pid, EndpointId src,
                           std::shared_ptr<bool> injected,
                           std::function<void()> then);
  void pump_window(EndpointId src, EndpointId dst, PairTx& tx);
  void transmit(EndpointId src, EndpointId dst, const Fragment& f);
  void arm_timer(EndpointId src, EndpointId dst, PairTx& tx);
  void on_timeout(EndpointId src, EndpointId dst);
  /// Abandons `tx`'s window and opens a new connection generation.
  void new_epoch(EndpointId src, PairTx& tx);
  void on_packet(net::Packet&& pkt);
  void on_data(WireData&& d);
  void on_ack(const WireAck& a);
  void handle_now(Endpoint& e, EndpointId dst_ep, WireData&& d);
  void send_ack(EndpointId from_ep, EndpointId to_ep, std::uint32_t epoch,
                std::uint32_t cum_seq);
  void drain_polling(net::NodeId node, os::ProcessId pid);

  NicMux& mux_;
  AmParams params_;
  // Loss-injection RNG.  Only touched when loss_probability > 0, which
  // partitioned runs forbid (a shared RNG would be both a race and a
  // thread-count-dependent sequence); the Cluster enforces that.
  sim::Pcg32 rng_;
  std::uint32_t tag_;
  std::vector<Endpoint> endpoints_;
  // node -> (owner pid -> polling endpoints) for dispatch-driven draining.
  std::unordered_map<net::NodeId,
                     std::unordered_map<os::ProcessId,
                                        std::vector<EndpointId>>>
      pollers_;
  std::vector<bool> observer_installed_;  // per node
  AmStats stats_;
  // Guards stats_: sender-side fields update on source lanes, receiver-side
  // on destination lanes.  Uncontended serially.
  sim::SpinLock stats_lock_;
  FailureHandler on_failure_;
  obs::Publication obs_pub_;
  obs::TrackId obs_track_;
};

}  // namespace now::proto
