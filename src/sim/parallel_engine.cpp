#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace now::sim {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
}  // namespace

ParallelEngine::ParallelEngine(Engine& global, ParallelConfig cfg)
    : global_(global), cfg_(cfg) {
  assert(cfg_.threads >= 1);
  assert(cfg_.nodes >= 1);
  assert(cfg_.lookahead > 0 && "partitioned execution needs lookahead > 0");
  if (cfg_.align == 0) cfg_.align = 1;
  // Lanes are dealt whole alignment groups (racks); more lanes than groups
  // would leave the extras permanently idle.
  groups_ = (static_cast<std::uint64_t>(cfg_.nodes) + cfg_.align - 1) /
            cfg_.align;
  if (cfg_.threads > groups_) {
    cfg_.threads = static_cast<unsigned>(groups_);
  }
  if (cfg_.threads > cfg_.nodes) cfg_.threads = cfg_.nodes;
  parts_.reserve(cfg_.threads);
  for (unsigned i = 0; i < cfg_.threads; ++i) {
    parts_.push_back(std::make_unique<Engine>());
  }
  mail_.resize(static_cast<std::size_t>(cfg_.threads) * cfg_.threads);
  lane_dispatched_.assign(cfg_.threads, 0);
  workers_.reserve(cfg_.threads - 1);
  for (unsigned i = 1; i < cfg_.threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
    ++generation_;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ParallelEngine::post(std::uint32_t src_node, std::uint32_t dst_node,
                          SimTime order_time, InlinedCallback fn) {
  Mailbox& box =
      mail_[static_cast<std::size_t>(lane_of(src_node)) * parts_.size() +
            lane_of(dst_node)];
  Msg m;
  m.time = order_time;
  m.src_node = src_node;
  m.dst_node = dst_node;
  m.seq = box.next_seq++;
  m.fn = std::move(fn);
  box.msgs.push_back(std::move(m));
}

// Applies every posted message, globally sorted by (time, src_node,
// dst_node, seq).  Runs between epochs with exclusive access to all lanes;
// a message's closure touches destination-lane state directly and
// schedules follow-up events on the destination engine.  The sort key
// never mentions a lane id, so the merge order — and therefore every
// downstream busy-horizon and delivery time — is identical at any thread
// count.  dst_node is part of the key because seq counts per mailbox: two
// same-instant posts from one source to *different* destinations carry
// equal seqs, and without dst_node their order would fall to the sort's
// whim (and to the lane layout).
void ParallelEngine::drain_mailboxes() {
  merge_buf_.clear();
  for (Mailbox& box : mail_) {
    if (box.msgs.empty()) continue;
    posted_ += box.msgs.size();
    std::move(box.msgs.begin(), box.msgs.end(),
              std::back_inserter(merge_buf_));
    box.msgs.clear();
  }
  if (merge_buf_.empty()) return;
  std::sort(merge_buf_.begin(), merge_buf_.end(),
            [](const Msg& a, const Msg& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.src_node != b.src_node) return a.src_node < b.src_node;
              if (a.dst_node != b.dst_node) return a.dst_node < b.dst_node;
              return a.seq < b.seq;
            });
  for (Msg& m : merge_buf_) m.fn.invoke_and_reset();
  merge_buf_.clear();
}

void ParallelEngine::advance_parts_to(SimTime t) {
  for (auto& p : parts_) p->advance_to(t);
}

void ParallelEngine::run_epoch(SimTime bound) {
  ++epochs_;
  if (parts_.size() == 1) {
    lane_dispatched_[0] += parts_[0]->run_while_before(bound);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    epoch_bound_ = bound;
    running_ = static_cast<unsigned>(parts_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  lane_dispatched_[0] += parts_[0]->run_while_before(bound);
  std::unique_lock<std::mutex> lk(m_);
  if (--running_ != 0) {
    done_cv_.wait(lk, [this] { return running_ == 0; });
  } else {
    done_cv_.notify_all();
  }
}

void ParallelEngine::worker_main(unsigned lane) {
  if (cfg_.worker_init) cfg_.worker_init();
  std::uint64_t seen = 0;
  for (;;) {
    SimTime bound;
    {
      std::unique_lock<std::mutex> lk(m_);
      work_cv_.wait(lk, [&] { return generation_ != seen; });
      seen = generation_;
      if (shutdown_) return;
      bound = epoch_bound_;
    }
    const std::uint64_t n = parts_[lane]->run_while_before(bound);
    {
      std::lock_guard<std::mutex> lk(m_);
      lane_dispatched_[lane] += n;
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

std::uint64_t ParallelEngine::drive(SimTime deadline, bool bounded) {
  std::uint64_t dispatched = 0;
  for (auto& n : lane_dispatched_) n = 0;
  std::uint64_t global_n = 0;
  for (;;) {
    drain_mailboxes();

    SimTime g = kNever;
    const bool has_g = global_.peek_next(&g);
    if (!has_g) g = kNever;
    SimTime m = kNever;
    for (auto& p : parts_) {
      SimTime t;
      if (p->peek_next(&t) && t < m) m = t;
    }
    const SimTime next = g < m ? g : m;
    if (next == kNever || (bounded && next > deadline)) break;

    if (g <= m) {
      // The global lane holds the next event: run exactly one, alone, with
      // every partition's clock lined up on its timestamp.  Global events
      // are total barriers — fault injections, cluster drivers — and may
      // touch any lane's state.  At a time tie (g == m) the global event
      // deliberately runs first: a fault at t takes effect before node
      // activity at t.
      advance_parts_to(g);
      if (global_.step()) ++global_n;
      continue;
    }

    // Parallel epoch [m, end): every lane dispatches its own events; no
    // cross-lane interaction can land inside the window (lookahead), so the
    // lanes share nothing until the next barrier.
    SimTime end = m + cfg_.lookahead;
    if (end > g) end = g;
    if (bounded && deadline != kNever && end > deadline + 1) {
      end = deadline + 1;  // events at exactly `deadline` still run
    }
    run_epoch(end);
  }
  drain_mailboxes();
  if (bounded) {
    advance_parts_to(deadline);
    global_.advance_to(deadline);
  }
  for (const std::uint64_t n : lane_dispatched_) dispatched += n;
  return dispatched + global_n;
}

std::uint64_t ParallelEngine::run() { return drive(kNever, /*bounded=*/false); }

std::uint64_t ParallelEngine::run_until(SimTime deadline) {
  return drive(deadline, /*bounded=*/true);
}

}  // namespace now::sim
