// An LRU cache of 64-bit block ids on flat storage.
//
// Entries are nodes in one slab, linked into recency order by 32-bit
// indices (head = MRU, tail = LRU); nodes freed by erase() go on a free
// list, and an eviction hands the victim's node straight to the new key.
// A FlatIndex maps each key to its node.  Both arrays grow as entries
// arrive, never ahead of them, so a large capacity costs nothing until it
// is used.
//
// Used by the cooperative-caching simulator for client, server and
// coordinated caches, and by xFS's and the central server's block caches.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "coopcache/flat_index.hpp"

namespace now::coopcache {

class LruCache {
 public:
  /// A capacity of 0 disables the cache: it never stores anything.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool full() const { return index_.size() >= capacity_; }

  bool contains(std::uint64_t key) const { return index_.contains(key); }

  /// Marks `key` most-recently-used.  Returns false if absent.
  bool touch(std::uint64_t key) {
    const std::uint32_t* n = index_.find(key);
    if (n == nullptr) return false;
    if (*n != head_) {
      unlink(*n);
      push_front(*n);
    }
    return true;
  }

  /// Inserts `key` as MRU.  If the cache is full, evicts the LRU entry and
  /// returns it via `evicted` (returns true when an eviction happened).
  /// Inserting a present key just touches it.
  bool insert(std::uint64_t key, std::uint64_t* evicted = nullptr) {
    if (touch(key)) return false;
    if (capacity_ == 0) return false;  // degenerate: cache disabled
    const bool evd = index_.size() >= capacity_;
    const std::uint32_t n = evd ? tail_ : new_node();
    if (evd) {
      const std::uint64_t victim = nodes_[n].key;
      unlink(n);
      index_.erase(victim);
      if (evicted != nullptr) *evicted = victim;
    }
    nodes_[n].key = key;
    push_front(n);
    index_.get_or_insert(key, n);
    return evd;
  }

  /// Removes `key` if present; returns whether it was there.
  bool erase(std::uint64_t key) {
    const std::uint32_t* found = index_.find(key);
    if (found == nullptr) return false;
    const std::uint32_t n = *found;
    index_.erase(key);
    unlink(n);
    nodes_[n].next = free_;
    free_ = n;
    return true;
  }

  /// The least-recently-used key.  Cache must be non-empty.
  std::uint64_t lru() const {
    assert(tail_ != kNil);
    return nodes_[tail_].key;
  }

  /// Empties the cache; keeps its storage for reuse.
  void clear() {
    nodes_.clear();
    index_.clear();
    head_ = tail_ = free_ = kNil;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::uint64_t key;
    std::uint32_t prev;  // towards MRU
    std::uint32_t next;  // towards LRU; free-list link when free
  };

  std::uint32_t new_node() {
    if (free_ != kNil) {
      const std::uint32_t n = free_;
      free_ = nodes_[n].next;
      return n;
    }
    if (nodes_.size() == nodes_.capacity()) {
      // Double, but never past the capacity: the slab holds at most
      // capacity_ nodes.
      nodes_.reserve(std::min(capacity_, std::max<std::size_t>(
                                             8, 2 * nodes_.size())));
    }
    nodes_.push_back(Node{});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void unlink(std::uint32_t n) {
    const Node& node = nodes_[n];
    (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
  }

  void push_front(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  FlatIndex index_;  // key -> node
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
  std::uint32_t free_ = kNil;  // erased nodes, linked through next
};

}  // namespace now::coopcache
