// Fenwick (binary indexed) trees — the substrate of the Bennett & Kruskal
// reuse distance algorithm (paper reference [2]): FenwickTree over trace
// positions for the sequential engine, and FenwickWindow, an order-
// statistic structure over an append-only key window that serves as the
// per-rank stack structure of Parda.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "tree/order_stat_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

namespace detail {
/// Lowest set bit of k: the length of the range Fenwick node k covers.
inline std::size_t lowbit(std::size_t k) noexcept { return k & (~k + 1); }
}  // namespace detail

class FenwickTree {
 public:
  explicit FenwickTree(std::size_t size) : bits_(size + 1, 0) {}

  std::size_t size() const noexcept { return bits_.size() - 1; }

  /// Adds delta at position i (0-based).
  void add(std::size_t i, std::int64_t delta) {
    PARDA_DCHECK(i < size());
    for (std::size_t k = i + 1; k < bits_.size(); k += detail::lowbit(k)) {
      bits_[k] += delta;
    }
  }

  /// Sum of positions [0, i] (0-based, inclusive).
  std::int64_t prefix_sum(std::size_t i) const {
    PARDA_DCHECK(i < size());
    std::int64_t sum = 0;
    for (std::size_t k = i + 1; k > 0; k -= detail::lowbit(k)) {
      sum += bits_[k];
    }
    return sum;
  }

  /// Sum of positions [lo, hi] inclusive; 0 for an empty range.
  std::int64_t range_sum(std::size_t lo, std::size_t hi) const {
    if (lo > hi) return 0;
    return prefix_sum(hi) - (lo == 0 ? 0 : prefix_sum(lo - 1));
  }

  /// Total sum.
  std::int64_t total() const {
    return size() == 0 ? 0 : prefix_sum(size() - 1);
  }

  void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

 private:
  std::vector<std::int64_t> bits_;
};

/// OrderStatTree over an append-only window of integer keys: key k is slot
/// k, a slot holds its address and a live flag, and a Fenwick tree of
/// uint32 counts over the live flags answers count_greater as a prefix
/// sum. Contract beyond OrderStatTree: every inserted key is greater than
/// every key inserted since the last clear() or renumber(). Memory is
/// O(largest key), so the owner keeps keys dense: RankState gives every
/// insert the next local tick and calls renumber() when the window is full
/// and at most half live.
///
/// Counts are built only up to the append frontier: appending slot k sums
/// its already-built Fenwick children, so an insert touches only recent
/// (cache-hot) counts, an erase walks up to the frontier only, and growing
/// the window never rewrites a count. Since keys only grow, the minimum
/// live key only moves forward: oldest()/pop_oldest() follow a monotone
/// cursor, amortized O(1) (Algorithm 7's eviction).
class FenwickWindow {
 public:
  void insert(Timestamp key, Addr addr) {
    PARDA_CHECK(key >= end_);
    if (key >= key_capacity()) resize_window(static_cast<std::size_t>(key) + 1);
    while (end_ < key) append_slot(0);  // skipped keys are dead slots
    addrs_[end_] = addr;
    live_[end_] = 1;
    if (size_ == 0) oldest_ = end_;
    append_slot(1);
    ++size_;
  }

  bool erase(Timestamp key) {
    if (key >= end_ || live_[key] == 0) return false;
    live_[key] = 0;
    --size_;
    for (std::size_t k = key + 1; k <= end_; k += detail::lowbit(k)) {
      --counts_[k];
    }
    if (key == oldest_) {
      while (oldest_ < end_ && live_[oldest_] == 0) ++oldest_;
    }
    return true;
  }

  std::uint64_t count_greater(Timestamp key) const {
    if (key >= end_) return 0;
    std::uint64_t upto = 0;  // live keys <= key
    for (std::size_t k = key + 1; k > 0; k -= detail::lowbit(k)) {
      upto += counts_[k];
    }
    return size_ - upto;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  TreeEntry oldest() const {
    PARDA_CHECK(size_ > 0);
    return TreeEntry{oldest_, addrs_[oldest_]};
  }

  TreeEntry pop_oldest() {
    const TreeEntry entry = oldest();
    erase(entry.ts);
    return entry;
  }

  /// Empties the window; its storage is kept for reuse.
  void clear() noexcept {
    std::fill(live_.begin() + static_cast<std::ptrdiff_t>(oldest_),
              live_.begin() + static_cast<std::ptrdiff_t>(end_), 0);
    end_ = oldest_ = size_ = 0;
  }

  /// Slots in the window; inserting a key at or past it grows the window.
  std::size_t key_capacity() const noexcept { return live_.size(); }

  /// Renumbers the live entries densely from 0 in key order, calling
  /// fn(new_key, addr) for each, and shrinks the window to twice their
  /// count. Returns the next free key (the live count). O(window).
  template <typename Fn>
  Timestamp renumber(Fn&& fn) {
    std::size_t n = 0;
    for (std::size_t i = oldest_; i < end_; ++i) {
      if (live_[i] == 0) continue;
      live_[i] = 0;
      live_[n] = 1;
      addrs_[n] = addrs_[i];
      fn(static_cast<Timestamp>(n), addrs_[n]);
      ++n;
    }
    resize_window(2 * n);
    // Every slot in [0, n) is live, so each count is its range length.
    for (std::size_t k = 1; k <= n; ++k) {
      counts_[k] = static_cast<std::uint32_t>(detail::lowbit(k));
    }
    end_ = size_ = n;
    oldest_ = 0;
    return n;
  }

  /// Ascending-key traversal; fn(TreeEntry).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = oldest_; i < end_; ++i) {
      if (live_[i] != 0) fn(TreeEntry{i, addrs_[i]});
    }
  }

  /// Checks every built count against the live flags, the size, the
  /// cursor, and that no slot past the frontier is live.
  bool validate() const {
    std::vector<std::uint64_t> prefix(end_ + 1, 0);
    for (std::size_t i = 0; i < end_; ++i) prefix[i + 1] = prefix[i] + live_[i];
    if (prefix[end_] != size_) return false;
    for (std::size_t k = 1; k <= end_; ++k) {
      if (counts_[k] != prefix[k] - prefix[k - detail::lowbit(k)]) return false;
    }
    if (oldest_ > end_ || (oldest_ < end_ && live_[oldest_] == 0)) {
      return false;
    }
    if (prefix[oldest_] != 0) return false;
    return std::all_of(live_.begin() + static_cast<std::ptrdiff_t>(end_),
                       live_.end(), [](std::uint8_t f) { return f == 0; });
  }

 private:
  static constexpr std::size_t kMinSlots = 64;

  /// Builds the count of the next slot (1-based k = end_ + 1) from its
  /// Fenwick children, all of which lie at or before the frontier.
  void append_slot(std::uint32_t leaf) {
    const std::size_t k = ++end_;
    std::uint32_t sum = leaf;
    const std::size_t first = k - detail::lowbit(k);  // exclusive
    for (std::size_t j = k - 1; j > first; j -= detail::lowbit(j)) {
      sum += counts_[j];
    }
    counts_[k] = sum;
  }

  /// Sets the window to the power of two covering `slots` (at least
  /// kMinSlots). Callers guarantee no live slot lies past the new end.
  void resize_window(std::size_t slots) {
    const std::size_t cap = std::bit_ceil(std::max(slots, kMinSlots));
    if (cap == key_capacity()) return;
    counts_.resize(cap + 1);
    addrs_.resize(cap);
    live_.resize(cap, 0);
    if (cap < counts_.capacity() / 2) {
      counts_.shrink_to_fit();
      addrs_.shrink_to_fit();
      live_.shrink_to_fit();
    }
  }

  std::vector<std::uint32_t> counts_;  // 1-based; built for [1, end_]
  std::vector<Addr> addrs_;
  std::vector<std::uint8_t> live_;
  std::size_t end_ = 0;     // slots appended since clear()/renumber()
  std::size_t oldest_ = 0;  // first live slot, or end_ when empty
  std::size_t size_ = 0;
};

static_assert(OrderStatTree<FenwickWindow>);

}  // namespace parda
