// An open-addressed hash map from 64-bit keys to 32-bit values.
//
// The one index behind every cooperative-caching container: LruCache's
// key -> node map, the manager directory's block -> holder list map and
// N-Chance's recirculation counts.  Slots live in one flat array (linear
// probing, power-of-two size, load factor at most 1/2) that grows by
// doubling as entries arrive, never ahead of them.  Erase shifts the rest
// of the probe run back instead of leaving tombstones, so lookups never
// slow down under churn.  Every uint64 key is valid (0 and ~0 included):
// occupancy is a separate flag, not a reserved key.
//
// Iteration order depends on the hash and on history; nothing that reaches
// a result may depend on it.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace now::coopcache {

class FlatIndex {
 public:
  std::size_t size() const { return size_; }

  /// The value stored for `key`, or nullptr.  Valid until the next insert
  /// or erase.
  std::uint32_t* find(std::uint64_t key) {
    const std::size_t i = slot_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const std::uint32_t* find(std::uint64_t key) const {
    const std::size_t i = slot_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// The value stored for `key`, inserting `init` first if it is absent.
  /// The reference is valid until the next insert or erase.
  std::uint32_t& get_or_insert(std::uint64_t key, std::uint32_t init) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].used; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i] = Slot{key, init, 1};
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    std::size_t hole = slot_of(key);
    if (hole == kAbsent) return false;
    // Backward shift: pull each later entry of the run into the hole
    // unless its home lies cyclically in (hole, j], where it must stay.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].used;
         j = (j + 1) & mask()) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask();
      if (from_home >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].used = 0;
    --size_;
    return true;
  }

  /// Empties the index; keeps its slot array for reuse.
  void clear() {
    for (Slot& s : slots_) s.used = 0;
    size_ = 0;
  }

  /// Calls f(key, value) for every entry, in slot order.
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint32_t value;
    std::uint32_t used;  // fills the padding; 0 = empty
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t home(std::uint64_t key) const {
    // Fold the high half down, then Fibonacci-hash into the top bits.
    key ^= key >> 32;
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::size_t slot_of(std::uint64_t key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (!slots_[i].used) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }

  void grow() {
    const std::size_t n = slots_.empty() ? 8 : slots_.size() * 2;
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(n, Slot{}));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (const Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 0;  // 64 - log2(slots_.size()); unused while empty
};

}  // namespace now::coopcache
