// Olken's tree-based sequential reuse distance analysis (paper Algorithm 1).
//
// State is a hash table (address -> last timestamp) plus an order-statistic
// tree holding one entry per distinct address, keyed by last-reference
// timestamp. Each reference costs one hash lookup and O(log M) tree work.
// The tree engine is a template parameter; the paper's configuration is
// OlkenAnalyzer<SplayTree>.
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
class OlkenAnalyzer {
 public:
  OlkenAnalyzer() = default;

  /// Processes one reference and returns its reuse distance
  /// (kInfiniteDistance for a first reference). Does NOT touch the
  /// internal histogram — callers that want the distance stream tally it
  /// themselves; the ReuseAnalyzer surface is process().
  Distance access(Addr z) {
    Distance d = kInfiniteDistance;
    if (const Timestamp* last = table_.find(z)) {
      d = tree_.count_greater(*last);
      tree_.erase(*last);
    }
    tree_.insert(now_, z);
    table_.insert_or_assign(z, now_);
    if (tree_.size() > peak_) peak_ = tree_.size();
    ++now_;
    return d;
  }

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) { hist_.record(access(z)); }

  /// Batched processing: identical tallies to per-reference process(),
  /// with the hash probe a few references ahead software-prefetched so the
  /// table's home slot is resident by the time access() runs.
  void process_block(std::span<const Addr> block) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(block[i + kAhead]);
      hist_.record(access(block[i]));
    }
  }

  void finish() {}
  const Histogram& histogram() const noexcept { return hist_; }
  EngineStats stats() const {
    EngineStats s;
    s.references = now_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.hash_probes = table_.probe_count();
    s.peak_footprint = peak_;
    detail::fill_tree_stats(tree_, s);
    return s;
  }

  /// Next timestamp to be assigned (== number of references processed).
  Timestamp time() const noexcept { return now_; }

  /// Number of distinct addresses seen so far.
  std::size_t footprint() const noexcept { return tree_.size(); }

  const Tree& tree() const noexcept { return tree_; }
  Tree& tree() noexcept { return tree_; }
  const AddrMap& table() const noexcept { return table_; }
  AddrMap& table() noexcept { return table_; }

  void reset() {
    tree_.clear();
    table_.clear();
    hist_.clear();
    now_ = 0;
    peak_ = 0;
  }

 private:
  Tree tree_;
  AddrMap table_;
  Histogram hist_;
  Timestamp now_ = 0;
  std::size_t peak_ = 0;
};

static_assert(ReuseAnalyzer<OlkenAnalyzer<SplayTree>>);

/// Runs Algorithm 1 over a whole trace and returns the histogram.
template <OrderStatTree Tree = SplayTree>
Histogram olken_analysis(std::span<const Addr> trace) {
  OlkenAnalyzer<Tree> analyzer;
  return analyze_trace(analyzer, trace);
}

}  // namespace parda
