// Fenwick (binary indexed) trees — the substrate of the Bennett & Kruskal
// reuse distance algorithm (paper reference [2]): FenwickTree over trace
// positions for the sequential engine, and FenwickWindow, an order-
// statistic structure over an append-only key window that serves as the
// per-rank stack structure of Parda.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
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
/// k. A slot holds its address and one live bit (a uint64_t word per 64
/// slots), and a Fenwick tree of uint32 counts, one node per 64-slot
/// block, answers count_greater as a block prefix sum plus a popcount of
/// the key's own word. Contract beyond OrderStatTree: every inserted key is
/// greater than every key inserted since the last clear() or renumber().
/// Memory is O(largest key), so the owner keeps keys dense: RankState
/// gives every insert the next local tick and calls renumber() when the
/// window is full and at most half live.
///
/// Layout: at 1M slots the bits take 128 KB and the block counts 64 KB, so
/// the structure count_greater and erase walk stays in L2; the 8 MB of
/// addresses is touched only by insert (in key order), the oldest cursor,
/// for_each and renumber.
///
/// Block counts are built only up to the append frontier: entering a new
/// block sums its already-built Fenwick children, and an insert bumps only
/// the frontier block's node (its ancestors lie past the frontier and are
/// built later from it). So an erase walks up to the frontier only, and
/// growing the window never rewrites a count. Since keys only grow, the
/// minimum live key only moves forward: oldest()/pop_oldest() follow a
/// monotone cursor that scans words, amortized O(1) (Algorithm 7's
/// eviction).
class FenwickWindow {
 public:
  void insert(Timestamp key, Addr addr) {
    PARDA_CHECK(key >= end_);
    if (key >= key_capacity()) resize_window(static_cast<std::size_t>(key) + 1);
    const std::size_t block = static_cast<std::size_t>(key) >> 6;
    for (std::size_t k = blocks(end_) + 1; k <= block + 1; ++k) append_block(k);
    end_ = static_cast<std::size_t>(key) + 1;  // skipped keys are dead slots
    words_[block] |= bit_of(key);
    ++counts_[block + 1];
    addrs_[key] = addr;
    if (size_ == 0) oldest_ = key;
    ++size_;
  }

  bool erase(Timestamp key) {
    if (key >= end_) return false;
    const std::size_t block = static_cast<std::size_t>(key) >> 6;
    if ((words_[block] & bit_of(key)) == 0) return false;
    words_[block] &= ~bit_of(key);
    --size_;
    const std::size_t frontier = blocks(end_);
    for (std::size_t k = block + 1; k <= frontier; k += detail::lowbit(k)) {
      --counts_[k];
    }
    if (key == oldest_) oldest_ = next_live(oldest_ + 1);
    return true;
  }

  std::uint64_t count_greater(Timestamp key) const {
    if (key >= end_) return 0;
    const std::size_t block = static_cast<std::size_t>(key) >> 6;
    // live keys <= key: those in the key's word at or below it, then the
    // whole blocks before it
    std::uint64_t upto = static_cast<std::uint64_t>(
        std::popcount(words_[block] << (63 - (key & 63))));
    for (std::size_t k = block; k > 0; k -= detail::lowbit(k)) {
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
    std::fill(words_.begin() + static_cast<std::ptrdiff_t>(oldest_ >> 6),
              words_.begin() + static_cast<std::ptrdiff_t>(blocks(end_)), 0);
    end_ = oldest_ = size_ = 0;
  }

  /// Slots in the window; inserting a key at or past it grows the window.
  std::size_t key_capacity() const noexcept { return words_.size() * 64; }

  /// Renumbers the live entries densely from 0 in key order, calling
  /// fn(new_key, addr) for each, and shrinks the window to twice their
  /// count. Returns the next free key (the live count). O(window).
  template <typename Fn>
  Timestamp renumber(Fn&& fn) {
    std::size_t n = 0;
    for (std::size_t w = oldest_ >> 6, stop = blocks(end_); w < stop; ++w) {
      for (std::uint64_t word = std::exchange(words_[w], 0); word != 0;
           word &= word - 1) {
        addrs_[n] = addrs_[(w << 6) + std::countr_zero(word)];
        fn(static_cast<Timestamp>(n), addrs_[n]);
        ++n;
      }
    }
    resize_window(2 * n);
    // Every slot in [0, n) is live: whole words, then a partial last word,
    // and each block count is the number of those slots its node covers.
    std::fill_n(words_.begin(), n >> 6, ~std::uint64_t{0});
    if ((n & 63) != 0) words_[n >> 6] = bit_of(n) - 1;
    for (std::size_t k = 1; k <= blocks(n); ++k) {
      counts_[k] = static_cast<std::uint32_t>(
          std::min(n, k << 6) - ((k - detail::lowbit(k)) << 6));
    }
    end_ = size_ = n;
    oldest_ = 0;
    return n;
  }

  /// Ascending-key traversal; fn(TreeEntry).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = oldest_ >> 6, stop = blocks(end_); w < stop; ++w) {
      for (std::uint64_t word = words_[w]; word != 0; word &= word - 1) {
        const std::size_t i = (w << 6) + std::countr_zero(word);
        fn(TreeEntry{i, addrs_[i]});
      }
    }
  }

  /// Checks every built block count against the live bits, the size, the
  /// cursor, and that no slot past the frontier is live.
  bool validate() const {
    const std::size_t built = blocks(end_);
    if (built > words_.size()) return false;
    std::vector<std::uint64_t> prefix(built + 1, 0);  // live in blocks [0, b)
    for (std::size_t b = 0; b < built; ++b) {
      prefix[b + 1] = prefix[b] + std::popcount(words_[b]);
    }
    if (prefix[built] != size_) return false;
    for (std::size_t k = 1; k <= built; ++k) {
      if (counts_[k] != prefix[k] - prefix[k - detail::lowbit(k)]) return false;
    }
    if ((end_ & 63) != 0 && (words_[end_ >> 6] >> (end_ & 63)) != 0) {
      return false;
    }
    if (!std::all_of(words_.begin() + static_cast<std::ptrdiff_t>(built),
                     words_.end(), [](std::uint64_t w) { return w == 0; })) {
      return false;
    }
    return oldest_ == next_live(0);
  }

 private:
  static constexpr std::size_t kMinSlots = 64;

  static std::uint64_t bit_of(std::uint64_t key) noexcept {
    return std::uint64_t{1} << (key & 63);
  }

  /// Blocks that hold a slot below `end`: the built Fenwick nodes.
  static std::size_t blocks(std::size_t end) noexcept { return (end + 63) >> 6; }

  /// Builds block node k (1-based, the block after the frontier) from its
  /// Fenwick children, all of which are already built; the block itself
  /// starts empty.
  void append_block(std::size_t k) {
    std::uint32_t sum = 0;
    const std::size_t first = k - detail::lowbit(k);  // exclusive
    for (std::size_t j = k - 1; j > first; j -= detail::lowbit(j)) {
      sum += counts_[j];
    }
    counts_[k] = sum;
  }

  /// First live slot at or after `from`, or end_ if there is none.
  std::size_t next_live(std::size_t from) const noexcept {
    if (from >= end_) return end_;
    std::size_t w = from >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
    const std::size_t last = (end_ - 1) >> 6;
    while (word == 0) {
      if (++w > last) return end_;
      word = words_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Sets the window to the power of two covering `slots` (at least
  /// kMinSlots). Callers guarantee no live slot lies past the new end.
  void resize_window(std::size_t slots) {
    const std::size_t cap = std::bit_ceil(std::max(slots, kMinSlots));
    if (cap == key_capacity()) return;
    words_.resize(cap >> 6, 0);
    counts_.resize((cap >> 6) + 1);
    addrs_.resize(cap);
    if (words_.size() < words_.capacity() / 2) {
      words_.shrink_to_fit();
      counts_.shrink_to_fit();
      addrs_.shrink_to_fit();
    }
  }

  std::vector<std::uint64_t> words_;   // live bits, slot k at bit k % 64
  std::vector<std::uint32_t> counts_;  // 1-based per block; built for
                                       // [1, blocks(end_)]
  std::vector<Addr> addrs_;
  std::size_t end_ = 0;     // slots appended since clear()/renumber()
  std::size_t oldest_ = 0;  // first live slot, or end_ when empty
  std::size_t size_ = 0;
};

static_assert(OrderStatTree<FenwickWindow>);

}  // namespace parda
