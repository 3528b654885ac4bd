#include "coopcache/coopcache.hpp"

#include <algorithm>
#include <cassert>

namespace now::coopcache {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kClientServer: return "client-server";
    case Policy::kGreedyForwarding: return "greedy-forwarding";
    case Policy::kCentrallyCoordinated: return "centrally-coordinated";
    case Policy::kNChance: return "n-chance";
  }
  return "?";
}

double CoopCacheResults::mean_read_response_ms(const CacheCosts& c) const {
  if (reads == 0) return 0.0;
  // Peer hits split by locality; with the default costs (cross-rack ==
  // in-rack) the split collapses to the original flat-building formula.
  const std::uint64_t cross = remote_client_hits - rack_local_peer_hits;
  const double total_us =
      sim::to_us(c.local_hit) * static_cast<double>(local_hits) +
      sim::to_us(c.remote_client) *
          static_cast<double>(rack_local_peer_hits) +
      sim::to_us(c.remote_client_cross_rack) * static_cast<double>(cross) +
      sim::to_us(c.server_mem) * static_cast<double>(server_mem_hits) +
      sim::to_us(c.server_disk) * static_cast<double>(disk_reads);
  return total_us / static_cast<double>(reads) / 1000.0;
}

namespace {
std::size_t local_capacity(const CoopCacheConfig& cfg) {
  if (cfg.policy == Policy::kCentrallyCoordinated) {
    return static_cast<std::size_t>(
        static_cast<double>(cfg.client_cache_blocks) *
        (1.0 - cfg.coordinated_fraction));
  }
  return cfg.client_cache_blocks;
}

std::size_t coordinated_capacity(const CoopCacheConfig& cfg) {
  if (cfg.policy != Policy::kCentrallyCoordinated) return 0;
  return static_cast<std::size_t>(
      static_cast<double>(cfg.client_cache_blocks) * cfg.clients *
      cfg.coordinated_fraction);
}
}  // namespace

CoopCacheSim::CoopCacheSim(CoopCacheConfig config)
    : config_(config), rng_(config.seed, /*stream=*/0x636f6f70),
      server_cache_(config.server_cache_blocks),
      coordinated_(coordinated_capacity(config)),
      obs_forwards_(&obs::metrics().counter("coopcache.singlet_forwards")) {
  obs_pub_.counter("coopcache.reads", results_.reads)
      .counter("coopcache.local_hits", results_.local_hits)
      .counter("coopcache.remote_hits", results_.remote_client_hits)
      .counter("coopcache.server_mem_hits", results_.server_mem_hits)
      .counter("coopcache.disk_reads", results_.disk_reads);
  assert(config_.clients > 0);
  client_caches_.reserve(config_.clients);
  for (std::uint32_t i = 0; i < config_.clients; ++i) {
    client_caches_.emplace_back(local_capacity(config_));
  }
}

bool CoopCacheSim::directory_consistent() const {
  // Every directory entry must be backed by the caches it names...
  bool ok = true;
  std::size_t directory_total = 0;
  directory_.for_each([&](std::uint64_t block, std::uint32_t list) {
    const std::vector<std::uint32_t>& clients = holder_lists_[list];
    if (clients.empty()) ok = false;  // empty lists should be unindexed
    for (const std::uint32_t c : clients) {
      if (!client_caches_[c].contains(block)) ok = false;
    }
    directory_total += clients.size();
  });
  // ...and every cached block must appear in the directory.
  std::size_t cached_total = 0;
  for (const auto& cache : client_caches_) cached_total += cache.size();
  return ok && cached_total == directory_total;
}

std::size_t CoopCacheSim::holders(std::uint64_t block) const {
  const std::uint32_t* list = directory_.find(block);
  return list == nullptr ? 0 : holder_lists_[*list].size();
}

void CoopCacheSim::directory_add(std::uint64_t block, std::uint32_t client) {
  const std::uint32_t* list = directory_.find(block);
  if (list == nullptr) {
    if (free_lists_.empty()) {
      free_lists_.push_back(static_cast<std::uint32_t>(holder_lists_.size()));
      holder_lists_.emplace_back();
    }
    list = &directory_.get_or_insert(block, free_lists_.back());
    free_lists_.pop_back();
  }
  std::vector<std::uint32_t>& clients = holder_lists_[*list];
  if (std::find(clients.begin(), clients.end(), client) == clients.end()) {
    clients.push_back(client);
  }
}

void CoopCacheSim::directory_remove(std::uint64_t block,
                                    std::uint32_t client) {
  const std::uint32_t* found = directory_.find(block);
  if (found == nullptr) return;
  const std::uint32_t list = *found;
  std::vector<std::uint32_t>& clients = holder_lists_[list];
  const auto it = std::find(clients.begin(), clients.end(), client);
  if (it == clients.end()) return;
  *it = clients.back();
  clients.pop_back();
  if (clients.empty()) {
    directory_.erase(block);
    free_lists_.push_back(list);
  }
}

std::int64_t CoopCacheSim::find_holder(std::uint64_t block,
                                       std::uint32_t except) const {
  const std::uint32_t* list = directory_.find(block);
  if (list == nullptr) return -1;
  // Deterministic choice, whatever the list's order: the smallest id other
  // than the requester — but with rack awareness a same-rack holder always
  // beats a cross-rack one (the manager knows the topology; forwarding
  // from the next rack over costs two extra switch crossings).
  const std::uint32_t rs = config_.rack_size;
  std::int64_t best = -1;
  bool best_local = false;
  for (const std::uint32_t c : holder_lists_[*list]) {
    if (c == except) continue;
    const bool local = rs > 0 && c / rs == except / rs;
    if (best < 0 || (local && !best_local) ||
        (local == best_local && static_cast<std::int64_t>(c) < best)) {
      best = c;
      best_local = local;
    }
  }
  return best;
}

void CoopCacheSim::access(std::uint32_t client, std::uint64_t block,
                          bool is_write) {
  assert(client < config_.clients);
  if (is_write) {
    write(client, block);
  } else {
    read(client, block);
  }
}

void CoopCacheSim::insert_local(std::uint32_t client, std::uint64_t block) {
  if (client_caches_[client].touch(block)) return;
  std::uint64_t victim = 0;
  const bool evicted = client_caches_[client].insert(block, &victim);
  directory_add(block, client);
  if (evicted) handle_eviction(client, victim);
}

void CoopCacheSim::handle_eviction(std::uint32_t client,
                                   std::uint64_t victim) {
  directory_remove(victim, client);
  switch (config_.policy) {
    case Policy::kClientServer:
    case Policy::kGreedyForwarding:
      break;  // dropped
    case Policy::kCentrallyCoordinated: {
      // Demote into the coordinated global cache.
      std::uint64_t global_victim = 0;
      coordinated_.insert(victim, &global_victim);
      break;
    }
    case Policy::kNChance: {
      if (holders(victim) > 0) break;  // duplicate: drop quietly
      std::uint32_t& count = recirculations_.get_or_insert(victim, 0);
      if (count >= config_.nchance_limit) {
        recirculations_.erase(victim);
        break;  // circled enough; let it die
      }
      ++count;
      obs_forwards_->inc();
      // Forward the singlet to a random other client.
      if (config_.clients < 2) break;
      std::uint32_t peer = rng_.next_below(config_.clients);
      if (peer == client) peer = (peer + 1) % config_.clients;
      std::uint64_t peer_victim = 0;
      const bool evicted =
          client_caches_[peer].insert(victim, &peer_victim);
      directory_add(victim, peer);
      if (evicted) handle_eviction(peer, peer_victim);
      break;
    }
  }
}

void CoopCacheSim::read(std::uint32_t client, std::uint64_t block) {
  ++results_.reads;

  if (client_caches_[client].touch(block)) {
    ++results_.local_hits;
    recirculations_.erase(block);
    return;
  }

  const bool cooperative = config_.policy == Policy::kGreedyForwarding ||
                           config_.policy == Policy::kNChance;
  if (cooperative) {
    const std::int64_t holder = find_holder(block, client);
    if (holder >= 0) {
      ++results_.remote_client_hits;
      if (config_.rack_size > 0 &&
          static_cast<std::uint32_t>(holder) / config_.rack_size ==
              client / config_.rack_size) {
        ++results_.rack_local_peer_hits;
      }
      client_caches_[static_cast<std::uint32_t>(holder)].touch(block);
      recirculations_.erase(block);
      insert_local(client, block);
      return;
    }
  }
  if (config_.policy == Policy::kCentrallyCoordinated &&
      coordinated_.contains(block)) {
    ++results_.remote_client_hits;  // served from coordinated client DRAM
    coordinated_.erase(block);      // promoted into the reader's local cache
    insert_local(client, block);
    return;
  }

  if (server_cache_.touch(block)) {
    ++results_.server_mem_hits;
    insert_local(client, block);
    return;
  }

  ++results_.disk_reads;
  server_cache_.insert(block);
  insert_local(client, block);
}

void CoopCacheSim::write(std::uint32_t client, std::uint64_t block) {
  ++results_.writes;
  // Write-through: the block lands in the local cache and the server cache
  // (timing of writes is not part of Table 3's read-response metric).
  insert_local(client, block);
  server_cache_.insert(block);
}

}  // namespace now::coopcache
