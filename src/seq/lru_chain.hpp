// Raw-speed MRC engine: an intrusive doubly-linked LRU chain with one
// marker pointer per binary-log level (the spm-sieve RD trick).
//
// Every other engine pays O(log M) balanced-tree work per reference to
// answer the *exact* reuse distance — but the dominant consumer, miss-
// ratio curves, only reads the histogram at log2 granularity. This engine
// answers exactly that question and nothing more, which buys a much
// cheaper access:
//
//   hash probe + unlink + relink + at most #buckets marker hops.
//
// Structure: all currently-tracked addresses sit on one LRU chain (head =
// most recent). A node's position p in the chain IS the reuse distance its
// address would resolve to right now, so its log2 bucket is a function of
// p alone: bucket 0 holds p == 0, bucket i >= 1 holds p in [2^(i-1), 2^i)
// — the exact layout of Histogram::log2_buckets(). Each node caches its
// bucket (`level`), and marker[i] points at the LAST node of level i (the
// node at position 2^i - 1). Splicing an accessed node to the front shifts
// every node ahead of it down one position, but only the nodes crossing a
// bucket edge change level — exactly the marker nodes — so the whole
// update is one level bump + one `prev` hop per affected marker, with no
// rebalancing. Nodes live in an arena indexed by 32-bit links (24 bytes a
// node, no per-access allocation); evicted nodes go on a free list, so
// bounded operation recycles memory at zero allocation steady-state.
//
// The histogram is accumulated directly in log2 bins and materialized at
// finish() by recording each bin's count at the bucket's floor distance
// (0, 1, 2, 4, ...), which makes histogram().log2_buckets() bit-identical
// to the bucketed exact analysis — the property tests pin this against
// OlkenAnalyzer on every trace family. See DESIGN.md §13 for the marker
// invariant and why log2 granularity is lossless for MRC consumers.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

class LruChainAnalyzer {
 public:
  /// Link / marker sentinel ("no node").
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;
  /// access_bucket() result for a first reference or capacity miss.
  static constexpr std::uint32_t kMissBucket = 0xFFFFFFFFu;
  /// Enough levels for any footprint a 32-bit arena can hold.
  static constexpr std::uint32_t kMaxLevels = 34;

  /// bound == 0: unbounded (track every distinct address). bound B >= 1:
  /// keep only the B most recently referenced addresses, evicting LRU —
  /// the Algorithm 7 cache-bound semantics, so every reference with true
  /// distance < B lands in its exact bucket and everything else is an
  /// infinity.
  /// The arena grows with the misses, never with the bound: an unchecked
  /// bound far above the footprint just means unbounded.
  explicit LruChainAnalyzer(std::uint64_t bound = 0) : bound_(bound) {
    marker_.fill(kNull);
  }

  /// Processes one reference and returns the log2 bucket of its reuse
  /// distance (kMissBucket for a first reference or capacity miss).
  std::uint32_t access_bucket(Addr z) {
    ++now_;
    if (const Timestamp* slot = table_.find(z)) {
      const auto x = static_cast<std::uint32_t>(*slot);
      const std::uint32_t level = nodes_[x].level;
      if (x != head_) move_to_front(x, level);
      return level;
    }
    insert_miss(z);
    return kMissBucket;
  }

  /// Processes one reference and returns its distance *bucket floor* —
  /// 0 for bucket 0, 2^(i-1) for bucket i — or kInfiniteDistance on a
  /// miss. The floor is the smallest distance in the bucket; the true
  /// distance lies in [floor, 2*floor) (d == floor exactly for buckets
  /// 0 and 1).
  Distance access(Addr z) {
    const std::uint32_t b = access_bucket(z);
    if (b == kMissBucket) return kInfiniteDistance;
    return bucket_floor(b);
  }

  /// Smallest distance in bucket b (the distance the bin is recorded at).
  static constexpr Distance bucket_floor(std::uint32_t b) noexcept {
    return b == 0 ? 0 : Distance{1} << (b - 1);
  }

  // --- ReuseAnalyzer surface -----------------------------------------------
  void process(Addr z) {
    const std::uint32_t b = access_bucket(z);
    if (b == kMissBucket) {
      ++inf_count_;
    } else {
      ++bins_[b];
    }
  }

  /// Batched processing: identical tallies to per-reference process(),
  /// with the hash probe for a few references ahead software-prefetched so
  /// the robin-hood chain's first line is resident when find() runs.
  void process_block(std::span<const Addr> block) {
    constexpr std::size_t kAhead = 8;
    const std::size_t n = block.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) table_.prefetch(block[i + kAhead]);
      process(block[i]);
    }
  }

  /// Materializes the log2 bins into the histogram (each bin recorded at
  /// its bucket floor). Idempotent.
  void finish() {
    if (finished_) return;
    finished_ = true;
    for (std::uint32_t b = 0; b < kMaxLevels; ++b) {
      if (bins_[b] != 0) hist_.record(bucket_floor(b), bins_[b]);
    }
    if (inf_count_ != 0) hist_.record(kInfiniteDistance, inf_count_);
  }

  const Histogram& histogram() const noexcept { return hist_; }

  EngineStats stats() const {
    EngineStats s;
    s.references = now_;
    s.infinities = inf_count_;
    s.finite = now_ - inf_count_;
    s.hash_probes = table_.probe_count();
    s.evictions = evictions_;
    s.marker_hops = marker_hops_;
    s.peak_footprint = peak_;
    return s;
  }

  // --- Introspection --------------------------------------------------------
  std::uint64_t bound() const noexcept { return bound_; }
  Timestamp time() const noexcept { return now_; }
  /// Distinct addresses currently on the chain.
  std::size_t footprint() const noexcept { return size_; }
  /// Arena slots ever allocated; stays at bound under bounded operation
  /// because evicted nodes are recycled through the free list.
  std::size_t allocated_nodes() const noexcept { return nodes_.size(); }
  /// Nodes currently parked on the free list.
  std::size_t free_nodes() const noexcept { return free_count_; }
  std::uint64_t eviction_count() const noexcept { return evictions_; }
  std::uint64_t marker_hop_count() const noexcept { return marker_hops_; }
  /// The raw log2 bins (index = bucket), live during processing.
  std::span<const std::uint64_t> bins() const noexcept {
    return {bins_.data(), kMaxLevels};
  }

  /// Full structural audit: chain/level/marker/table/free-list agreement.
  /// O(footprint); for tests and debugging. Returns false and fills `why`
  /// (if given) on the first violated invariant.
  bool check_invariants(std::string* why = nullptr) const;

  void reset();

 private:
  struct Node {
    Addr addr = 0;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
    std::uint32_t level = 0;
  };

  /// Splices non-head node x (at some position p with bucket `level`, so
  /// level >= 1) to the front. Nodes ahead of x shift down one position;
  /// the boundary node of each level below x's crosses into the next
  /// level, which is exactly a marker slide: bump its level, hop the
  /// marker one node toward the head.
  void move_to_front(std::uint32_t x, std::uint32_t level) {
    Node* nodes = nodes_.data();
    std::uint64_t hops = level - 1;
    if (marker_[level] == x) {
      // x was its own level's boundary node (position 2^level - 1); the
      // node ahead of it inherits that position once x leaves.
      marker_[level] = nodes[x].prev;
      ++hops;
    }
    for (std::uint32_t i = 1; i < level; ++i) {
      const std::uint32_t m = marker_[i];
      nodes[m].level = i + 1;
      marker_[i] = nodes[m].prev;
    }
    marker_hops_ += hops;
    nodes[head_].level = 1;  // old head shifts from position 0 to 1
    // Unlink x ...
    const std::uint32_t p = nodes[x].prev;
    const std::uint32_t n = nodes[x].next;
    nodes[p].next = n;
    if (n != kNull) {
      nodes[n].prev = p;
    } else {
      tail_ = p;
    }
    // ... and relink at the front.
    nodes[x].prev = kNull;
    nodes[x].next = head_;
    nodes[x].level = 0;
    nodes[head_].prev = x;
    head_ = x;
  }

  void insert_miss(Addr z);
  void evict_tail();

  std::uint64_t bound_;
  std::vector<Node> nodes_;  // arena; nodes addressed by index
  AddrMap table_;            // addr -> arena index of its node
  std::uint32_t head_ = kNull;
  std::uint32_t tail_ = kNull;
  std::uint32_t free_ = kNull;  // singly linked through Node::next
  // marker_[i] = node at position 2^i - 1 (the last node of level i), or
  // kNull while the chain is shorter than 2^i. marker_[0] would always be
  // the head, so it is left implicit and slot 0 stays kNull.
  std::array<std::uint32_t, kMaxLevels> marker_;
  std::array<std::uint64_t, kMaxLevels> bins_{};  // finite log2 tallies
  Histogram hist_;
  std::uint64_t inf_count_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t free_count_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t marker_hops_ = 0;
  bool finished_ = false;
};

static_assert(ReuseAnalyzer<LruChainAnalyzer>);

/// Whole-trace convenience (log2-granular histogram; bound 0 = unbounded).
inline Histogram lru_chain_analysis(std::span<const Addr> trace,
                                    std::uint64_t bound = 0) {
  LruChainAnalyzer analyzer(bound);
  return analyze_trace(analyzer, trace);
}

}  // namespace parda
