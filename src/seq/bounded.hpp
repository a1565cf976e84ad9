// Sequential bounded reuse distance analysis (the cache-bound idea of paper
// Section V, Algorithm 7, without the parallel local-infinity plumbing).
//
// With bound B, the tree and hash table hold at most B entries — the B most
// recently referenced distinct addresses — evicting LRU like a real cache of
// size B. Every reference with true distance d < B is measured exactly;
// everything else (evicted or first-ever) lands in the infinity bin, which
// is all a cache of size <= B needs.
#pragma once

#include <span>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "tree/order_stat_tree.hpp"
#include "tree/splay_tree.hpp"
#include "util/types.hpp"

namespace parda {

template <OrderStatTree Tree>
class BoundedAnalyzer {
 public:
  explicit BoundedAnalyzer(std::uint64_t bound) : bound_(bound) {}

  /// Processes one reference; returns its distance, which is exact when
  /// finite and kInfiniteDistance for first references *and* references
  /// whose true distance is >= bound (capacity misses).
  Distance access(Addr z) {
    Distance d = kInfiniteDistance;
    if (const Timestamp* last = table_.find(z)) {
      d = tree_.count_greater(*last);
      tree_.erase(*last);
      table_.erase(z);
    } else if (table_.size() >= bound_) {
      const TreeEntry victim = tree_.pop_oldest();
      table_.erase(victim.addr);
      ++evictions_;
    }
    tree_.insert(now_, z);
    table_.insert_or_assign(z, now_);
    ++now_;
    return d;
  }

  /// Batched access: records each reference's distance into `hist` — the
  /// internal histogram for process_block, a window histogram for the
  /// online-MRC monitor.
  void access_block(std::span<const Addr> block, Histogram& hist) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(block[i + kAhead]);
      hist.record(access(block[i]));
    }
  }

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) { hist_.record(access(z)); }

  /// Batched processing: identical tallies to per-reference process(),
  /// with the hash probe a few references ahead software-prefetched so the
  /// table's home slot is resident by the time access() runs.
  void process_block(std::span<const Addr> block) {
    access_block(block, hist_);
  }

  void finish() {}
  const Histogram& histogram() const noexcept { return hist_; }
  EngineStats stats() const {
    EngineStats s;
    s.references = now_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.hash_probes = table_.probe_count();
    s.evictions = evictions_;
    // The resident set is capped at B, so the bound is the peak whenever
    // an eviction ever happened.
    s.peak_footprint = evictions_ > 0 ? bound_ : tree_.size();
    detail::fill_tree_stats(tree_, s);
    return s;
  }

  std::uint64_t bound() const noexcept { return bound_; }
  /// Distinct addresses currently tracked (<= bound). Renamed from the
  /// straggler `resident()` to match the other engines' accessor.
  std::size_t footprint() const noexcept { return tree_.size(); }
  std::uint64_t eviction_count() const noexcept { return evictions_; }
  Timestamp time() const noexcept { return now_; }

  void reset() {
    tree_.clear();
    table_.clear();
    hist_.clear();
    now_ = 0;
    evictions_ = 0;
  }

 private:
  std::uint64_t bound_;
  Tree tree_;
  AddrMap table_;
  Histogram hist_;
  Timestamp now_ = 0;
  std::uint64_t evictions_ = 0;
};

static_assert(ReuseAnalyzer<BoundedAnalyzer<SplayTree>>);

template <OrderStatTree Tree = SplayTree>
Histogram bounded_analysis(std::span<const Addr> trace, std::uint64_t bound) {
  BoundedAnalyzer<Tree> analyzer(bound);
  return analyze_trace(analyzer, trace);
}

}  // namespace parda
