// Per-rank analysis state for the Parda parallel algorithm.
//
// One RankState bundles the tree + hash table + histogram of Algorithm 3's
// modified stack_dist, the local-infinity queue, the received-infinity
// counter of the space-optimized merge (Algorithm 4), and the bounded-cache
// logic of Algorithm 7. It is deliberately comm-agnostic so the same state
// machine drives the offline, phased, and test harnesses.
//
// Keys: the tree and the AddrMap are keyed by a per-rank local tick, not by
// the global timestamp. Every insert takes the next tick, so tick order is
// reference order within the rank and only that order matters to
// count_greater. With a FenwickWindow, whose memory follows the largest
// key, a full window that is at most half live is renumbered densely from
// 0 (the AddrMap values are rewritten with it): amortized O(1) per insert,
// and the window stays O(resident) rather than O(chunk). Renumbering keeps
// every tick below twice the peak resident count, so such a rank keys a
// 16-byte-slot BasicAddrMap<uint32_t> (a PARDA_CHECK guards the 2^32
// limit); a tree that never renumbers keeps the uint64_t AddrMap.
//
// Block dispatch: process_own_block and process_incoming walk their input
// in fixed internal batches. Each batch prefetches hash slots ahead of the
// probes and collects its finite distances in a small buffer, which it then
// tallies with Histogram::record_batch (prefetched bins). Only the order in
// which histogram bins are incremented changes, so tallies, the
// local-infinity stream and the received-infinity offset equal those of
// the per-reference loop.
//
// Bounded-mode semantics (Algorithm 7, see DESIGN.md): with bound B, the
// final histogram is exact for all d < B and every reference with true
// distance >= B is an infinity. A rank's own chunk emits at most B local
// infinities per phase and tallies every later miss as an infinity on the
// spot, so a bounded phase forwards O(np*B) records. The paper's
// Algorithm 4 would occasionally resolve an inter-chunk distance >= B
// exactly; we clamp those to infinity so bounded-parallel equals
// bounded-sequential bit-for-bit, which the property tests verify.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "core/messages.hpp"
#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "tree/fenwick.hpp"
#include "tree/order_stat_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

inline constexpr std::uint64_t kUnbounded = 0;

template <OrderStatTree Tree = FenwickWindow>
class RankState {
  /// A tree that renumbers (FenwickWindow) bounds its keys by the resident
  /// count, so its ticks fit the narrow table value.
  static constexpr bool kRenumbers =
      requires(const Tree& t) { t.key_capacity(); };
  using Tick = std::conditional_t<kRenumbers, std::uint32_t, Timestamp>;

 public:
  /// bound: kUnbounded, or the cache bound B of Algorithm 7.
  /// space_optimized: use Algorithm 4 for incoming infinities. Bounded mode
  /// requires it (the paper's evaluated configuration).
  explicit RankState(std::uint64_t bound = kUnbounded,
                     bool space_optimized = true)
      : bound_(bound), space_optimized_(space_optimized) {
    PARDA_CHECK(bound_ == kUnbounded || space_optimized_);
  }

  /// Processes one reference of this rank's own chunk; ts is the global
  /// trace position, carried only by the local-infinity record (Algorithm 3
  /// / Algorithm 7 main loop).
  ///
  /// Bounded-mode note (Algorithm 7's budget): the chunk emits at most B
  /// local infinities per phase (the count resets in begin_merge_stage);
  /// each later miss is tallied as an infinity at once. A rank >= 1 starts
  /// every phase empty, so after B records its chunk holds >= B distinct
  /// addresses and every later miss has a true distance >= B. A record from
  /// right of such a saturated rank reaches a rank further left only after
  /// >= B received records, so the Algorithm 4 offset clamps it to an
  /// infinity; a record with true distance < B never crosses a saturated
  /// rank. The swallowed records leave stale replicas only left of a
  /// saturated rank, which Algorithm 6 drops (see saturated()).
  void process_own(Addr z, Timestamp ts) {
    const Distance d = resolve_own(z, ts);
    if (d != kInfiniteDistance) hist_.record(d);
  }

  /// Batched process_own over a contiguous run of this rank's chunk whose
  /// first reference sits at global position base_ts. Identical tallies and
  /// record stream to the per-reference loop; the hash probe a few
  /// references ahead is software-prefetched and the hits' distances are
  /// tallied once per internal batch.
  void process_own_block(std::span<const Addr> block, Timestamp base_ts) {
    run_batches<8>(block, [&](std::size_t i) {
      return resolve_own(block[i], base_ts + i);
    });
  }

  /// Processes a received local-infinity list (one merge round). Survivors
  /// (still-unresolved references) are appended to the outgoing queue. The
  /// whole list is in hand, so the hash slot 16 records ahead is
  /// prefetched, and resolved distances are tallied once per internal
  /// batch; a split of the list into any calls gives the same result.
  void process_incoming(std::span<const InfRecord> records) {
    run_batches<16>(records, [&](std::size_t i) {
      return resolve_incoming(records[i]);
    });
  }

  /// The pending local-infinity queue (inspection only).
  const std::vector<InfRecord>& local_infinities() const noexcept {
    return loc_inf_;
  }

  /// Moves out the pending local-infinity queue (to send leftward).
  std::vector<InfRecord> take_local_infinities() {
    std::vector<InfRecord> out = std::move(loc_inf_);
    loc_inf_.clear();
    return out;
  }

  /// Rank 0 terminal handling: everything still unresolved is a global
  /// infinity (compulsory miss).
  void flush_global_infinities() {
    hist_.record(kInfiniteDistance, loc_inf_.size());
    loc_inf_.clear();
  }

  /// Serializes the resident set for the phase reduction (Algorithm 6) in
  /// ascending tick order, leaving this rank empty. Each record's ts is its
  /// local tick; append_state relies on record order only.
  std::vector<InfRecord> export_state() {
    std::vector<InfRecord> out;
    out.reserve(tree_.size());
    tree_.for_each(
        [&](TreeEntry e) { out.push_back(InfRecord{e.addr, e.ts}); });
    drop_state();
    return out;
  }

  /// Algorithm 6 at rank 0: appends another rank's export as the newest
  /// entries. Called once per rank 1..np-1 in rank order after each phase
  /// (or, when some rank saturated, on a dropped state for the newest
  /// saturated rank and those to its right), this keeps the whole state in
  /// reference order: every export was last referenced in its rank's chunk,
  /// later than anything rank 0 holds, and each export is tick-ordered.
  /// With space optimization the address sets are disjoint (paper Section
  /// IV-C), so no duplicate check is needed — PARDA_DCHECK guards that
  /// claim in debug builds. With a bound, each append first evicts the
  /// oldest entry once B are resident, so the B newest survive — anything
  /// older has >= B distinct successors and can never be hit again.
  void append_state(std::span<const InfRecord> newer) {
    for (const InfRecord& rec : newer) {
      PARDA_DCHECK(!table_.contains(rec.addr));
      if (bound_ != kUnbounded && tree_.size() >= bound_) {
        table_.erase(tree_.pop_oldest().addr);
      }
      push_newest(rec.addr);
    }
    note_resident();
  }

  /// Resets the per-phase counters: the Algorithm 4 received count and
  /// Algorithm 7's record budget (start of each phase).
  void begin_merge_stage() {
    received_count_ = 0;
    emitted_ = 0;
  }

  /// Bounded only: this phase's chunk used up its budget of B records. The
  /// B newest distinct addresses of the phase are then held, with no stale
  /// copies, by the newest saturated rank and the ranks to its right.
  bool saturated() const noexcept {
    return bound_ != kUnbounded && emitted_ >= bound_;
  }

  /// Empties the resident set (tree and hash), keeping the histogram and
  /// counters: Algorithm 6 at rank 0 when some rank saturated.
  void drop_state() {
    tree_.clear();
    table_.clear();
    next_tick_ = 0;
  }

  const Histogram& hist() const noexcept { return hist_; }
  Histogram& hist() noexcept { return hist_; }
  std::size_t resident() const noexcept { return tree_.size(); }
  std::uint64_t peak_resident() const noexcept { return peak_resident_; }
  std::uint64_t received_count() const noexcept { return received_count_; }
  std::size_t pending_infinities() const noexcept { return loc_inf_.size(); }
  std::uint64_t bound() const noexcept { return bound_; }
  bool space_optimized() const noexcept { return space_optimized_; }
  const Tree& tree() const noexcept { return tree_; }
  const BasicAddrMap<Tick>& table() const noexcept { return table_; }

 private:
  /// Runs resolve(i) for every index of `items` in internal batches of
  /// 256, prefetching the hash slot of item i + kAhead, and tallies each
  /// batch's finite distances with one Histogram::record_batch.
  template <std::size_t kAhead, typename Item, typename Resolve>
  void run_batches(std::span<const Item> items, Resolve&& resolve) {
    constexpr std::size_t kBatch = 256;
    std::array<Distance, kBatch> finite{};
    const std::size_t n = items.size();
    for (std::size_t start = 0; start < n; start += kBatch) {
      const std::size_t stop = std::min(n, start + kBatch);
      std::size_t hits = 0;
      for (std::size_t i = start; i < stop; ++i) {
        if (i + kAhead < n) table_.prefetch(addr_of(items[i + kAhead]));
        const Distance d = resolve(i);
        if (d != kInfiniteDistance) finite[hits++] = d;
      }
      hist_.record_batch(std::span<const Distance>(finite.data(), hits));
    }
  }

  static Addr addr_of(Addr z) noexcept { return z; }
  static Addr addr_of(const InfRecord& rec) noexcept { return rec.addr; }

  /// process_own without the tally: returns the hit's distance, or
  /// kInfiniteDistance for a miss (which joins the local-infinity queue).
  Distance resolve_own(Addr z, Timestamp ts) {
    Distance d = kInfiniteDistance;
    if (const Tick* last = table_.find(z)) {
      d = tree_.count_greater(*last);
      tree_.erase(*last);
      // The tree never holds more than B entries (a miss evicts at B, and
      // append_state trims to B), so a local hit is always below the bound.
      PARDA_DCHECK(bound_ == kUnbounded || d < bound_);
    } else {
      if (bound_ != kUnbounded && table_.size() >= bound_) {
        // Capacity: evict LRU. The victim's own judgement was already
        // deferred when it first appeared, so nothing is tallied here.
        const TreeEntry victim = tree_.pop_oldest();
        table_.erase(victim.addr);
      }
      if (bound_ == kUnbounded || emitted_ < bound_) {
        // First reference in this rank's view: defer judgement, pass left.
        loc_inf_.push_back(InfRecord{z, ts});
        ++emitted_;
      } else {
        // Algorithm 7's budget is spent: the chunk already holds >= B
        // distinct addresses, so this miss's true distance is >= B.
        hist_.record(kInfiniteDistance);
      }
    }
    push_newest(z);
    note_resident();
    return d;
  }

  /// One record of process_incoming without the finite tally: returns the
  /// resolved distance, or kInfiniteDistance when the record survives (it
  /// joins the outgoing queue) or clamps to infinity (tallied here).
  Distance resolve_incoming(const InfRecord& rec) {
    Distance d = kInfiniteDistance;
    if (const Tick* last = table_.find(rec.addr)) {
      d = tree_.count_greater(*last);
      if (space_optimized_) {
        // Algorithm 4: offset by infinities received so far — distinct
        // elements of the right-hand suffix that are (by design) absent
        // from this rank's tree.
        d += received_count_;
        tree_.erase(*last);
        table_.erase(rec.addr);
      } else {
        // Unoptimized Algorithm 3: the incoming reference is replayed
        // like a normal trace entry, so the tree itself accounts for
        // every suffix element and no offset applies.
        tree_.erase(*last);
        push_newest(rec.addr);
      }
      if (bound_ != kUnbounded && d >= bound_) {
        d = kInfiniteDistance;
        hist_.record(kInfiniteDistance);
      }
    } else {
      loc_inf_.push_back(rec);
      if (!space_optimized_) {
        push_newest(rec.addr);
        note_resident();
      }
    }
    ++received_count_;
    return d;
  }

  /// Inserts z as the newest entry, under the next local tick.
  void push_newest(Addr z) {
    if constexpr (kRenumbers) {
      if (next_tick_ == tree_.key_capacity() &&
          2 * tree_.size() <= next_tick_) {
        next_tick_ = tree_.renumber([this](Timestamp key, Addr a) {
          table_.insert_or_assign(a, static_cast<Tick>(key));
        });
      }
      PARDA_CHECK(next_tick_ <= std::numeric_limits<Tick>::max());
    }
    tree_.insert(next_tick_, z);
    table_.insert_or_assign(z, static_cast<Tick>(next_tick_));
    ++next_tick_;
  }

  void note_resident() noexcept {
    if (tree_.size() > peak_resident_) peak_resident_ = tree_.size();
  }

  std::uint64_t bound_;
  bool space_optimized_;
  Tree tree_;
  BasicAddrMap<Tick> table_;
  Histogram hist_;
  std::vector<InfRecord> loc_inf_;
  Timestamp next_tick_ = 0;  // local key of the next insert
  std::uint64_t received_count_ = 0;  // 'count' of Algorithm 4
  std::uint64_t emitted_ = 0;  // own records emitted this phase (Alg. 7)
  std::uint64_t peak_resident_ = 0;
};

}  // namespace parda
