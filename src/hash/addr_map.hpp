// BasicAddrMap<V>: an open-addressing robin-hood hash map from Addr to an
// unsigned value V; AddrMap is the Timestamp (uint64_t) instantiation.
//
// This is the repository's stand-in for the GLib GHashTable the original
// Parda implementation used: every sequential engine and every Parda rank
// keeps one map from data address to the timestamp of its most recent
// reference. Robin-hood probing with backward-shift deletion keeps probe
// chains short under the heavy churn (insert + erase per reference) that
// reuse distance analysis generates.
//
// Value width sets the slot size: a uint64_t value makes a 24-byte slot, a
// uint32_t value a 16-byte one. A Parda rank on a FenwickWindow keys by
// local ticks that renumbering keeps below 2 x resident, so it uses
// BasicAddrMap<uint32_t> and its table takes two thirds of the memory
// (and cache lines) per probe. Both widths are instantiated in
// addr_map.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/prng.hpp"
#include "util/types.hpp"

namespace parda {

template <typename V>
class BasicAddrMap {
 public:
  BasicAddrMap();
  explicit BasicAddrMap(std::size_t initial_capacity);

  BasicAddrMap(const BasicAddrMap&) = default;
  BasicAddrMap(BasicAddrMap&&) noexcept = default;
  BasicAddrMap& operator=(const BasicAddrMap&) = default;
  BasicAddrMap& operator=(BasicAddrMap&&) noexcept = default;

  /// Returns a pointer to the mapped value, or nullptr if absent. The
  /// pointer is invalidated by any mutating call.
  const V* find(Addr key) const noexcept;
  V* find(Addr key) noexcept;

  bool contains(Addr key) const noexcept { return find(key) != nullptr; }

  /// Hints the cache to load the key's home slot (the first slot a find()
  /// would inspect). The batched engine paths issue this a few references
  /// ahead of the probe so the robin-hood chain's first line is resident
  /// by the time find() runs. No effect on the map's state or counters.
  void prefetch(Addr key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t i = static_cast<std::size_t>(mix64(key)) & mask_;
    __builtin_prefetch(slots_.data() + i, /*rw=*/0, /*locality=*/3);
#else
    (void)key;
#endif
  }

  /// Inserts or overwrites. Returns true if the key was newly inserted.
  bool insert_or_assign(Addr key, V value);

  /// Removes the key; returns true if it was present.
  bool erase(Addr key) noexcept;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  void clear() noexcept;
  void reserve(std::size_t n);

  /// Invokes fn(addr, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.dib != kEmpty) fn(s.key, s.value);
    }
  }

  /// Longest probe chain currently in the table (diagnostics / tests).
  std::size_t max_probe_length() const noexcept;

  /// Cumulative slot inspections across every find/erase search over the
  /// map's lifetime — the "hash probes" engine stat surfaced by the
  /// observability layer. A plain (non-atomic) counter: the map is
  /// single-threaded per rank.
  std::uint64_t probe_count() const noexcept { return probes_; }

 private:
  // dib is 16-bit with 0xFFFF as the empty sentinel. The previous 8-bit
  // encoding made a probe chain of length 255 indistinguishable from
  // "empty" (an adversarial set of same-bucket keys silently corrupted the
  // table); 16 bits cost nothing (the slot is padded to 16 or 24 bytes
  // either way) and kGrowProbeLimit additionally forces a rehash long
  // before the sentinel could be reached.
  static constexpr std::uint16_t kEmpty = 0xFFFF;
  /// Inserting a chain that probes this far triggers an early grow(): a
  /// doubled table splits every bucket's chain, keeping probes short even
  /// for adversarial same-bucket key sets.
  static constexpr std::uint16_t kGrowProbeLimit = 255;
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    Addr key = 0;
    V value = 0;
    std::uint16_t dib = kEmpty;  // distance from ideal bucket
  };
  static_assert(sizeof(Slot) == (sizeof(V) <= 4 ? 16 : 24));

  std::size_t bucket_of(Addr key) const noexcept;
  void grow();
  /// Returns the longest probe distance written while placing the entry.
  std::uint16_t insert_fresh(Addr key, V value);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  mutable std::uint64_t probes_ = 0;
};

extern template class BasicAddrMap<std::uint64_t>;
extern template class BasicAddrMap<std::uint32_t>;

using AddrMap = BasicAddrMap<Timestamp>;

}  // namespace parda
