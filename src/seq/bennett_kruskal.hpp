// The Bennett & Kruskal algorithm (1975, paper reference [2]): a hashing
// pre-pass records each reference's previous-access time; a second pass
// walks the trace keeping a bit per position ("this position was the last
// access of its address so far") in a Fenwick tree, so the reuse distance
// of a reference with previous access t0 is the number of set bits in
// (t0, t) — each set bit is one distinct intervening address.
//
// Unlike Olken's O(M)-space structure this needs O(N) bits, which is why
// Olken's tree superseded it; both are exposed for the engine ablation.
#pragma once

#include <span>
#include <vector>

#include "hash/addr_map.hpp"
#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "tree/fenwick.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

/// Two-pass engine behind bennett_kruskal_analysis. The algorithm cannot
/// answer distances online (pass 2 needs the full previous-occurrence
/// table), so process() buffers references and finish() runs both passes;
/// analyze() skips the buffering when the whole trace is already in hand.
class BennettKruskalAnalyzer {
 public:
  void process(Addr z) {
    PARDA_CHECK(!finished_);
    trace_.push_back(z);
  }

  /// Batched buffering: one bounds-check + bulk append instead of a
  /// push_back per reference. Tallies are identical — the two passes
  /// run over the same buffered trace in finish().
  void process_block(std::span<const Addr> block) {
    PARDA_CHECK(!finished_);
    trace_.insert(trace_.end(), block.begin(), block.end());
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    run_two_pass(trace_);
    references_ = trace_.size();
  }

  /// Whole-trace entry point: both passes directly over `trace`, with no
  /// buffering copy. The analyzer must be fresh (no process() calls yet).
  void analyze(std::span<const Addr> trace) {
    PARDA_CHECK(!finished_ && trace_.empty());
    finished_ = true;
    run_two_pass(trace);
    references_ = trace.size();
  }

  const Histogram& histogram() const noexcept { return hist_; }

  EngineStats stats() const {
    EngineStats s;
    s.references = references_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    s.hash_probes = hash_probes_;
    s.peak_footprint = distinct_;
    return s;
  }

  void reset() {
    trace_.clear();
    hist_.clear();
    finished_ = false;
    references_ = 0;
    hash_probes_ = 0;
    distinct_ = 0;
  }

 private:
  void run_two_pass(std::span<const Addr> trace) {
    const std::size_t n = trace.size();
    if (n == 0) return;

    // Pass 1: previous-occurrence index per reference (kNoTimestamp =
    // first).
    std::vector<Timestamp> previous(n);
    {
      AddrMap last_seen;
      for (std::size_t t = 0; t < n; ++t) {
        if (const Timestamp* last = last_seen.find(trace[t])) {
          previous[t] = *last;
        } else {
          previous[t] = kNoTimestamp;
          ++distinct_;
        }
        last_seen.insert_or_assign(trace[t], t);
      }
      hash_probes_ = last_seen.probe_count();
    }

    // Pass 2: maintain "is live last-access" flags in a Fenwick tree.
    FenwickTree live(n);
    for (std::size_t t = 0; t < n; ++t) {
      if (previous[t] == kNoTimestamp) {
        hist_.record(kInfiniteDistance);
      } else {
        const auto t0 = static_cast<std::size_t>(previous[t]);
        // Set bits strictly inside (t0, t) are the distinct addresses
        // referenced since the previous access.
        const std::int64_t distinct =
            t0 + 1 <= t - 1 ? live.range_sum(t0 + 1, t - 1) : 0;
        hist_.record(static_cast<Distance>(distinct));
        live.add(t0, -1);  // t0 is no longer its address's last access
      }
      live.add(t, +1);
    }
  }

  std::vector<Addr> trace_;
  Histogram hist_;
  bool finished_ = false;
  std::size_t references_ = 0;
  std::uint64_t hash_probes_ = 0;
  std::size_t distinct_ = 0;
};

static_assert(ReuseAnalyzer<BennettKruskalAnalyzer>);

/// Whole-trace analysis; requires the trace in memory (two passes).
inline Histogram bennett_kruskal_analysis(std::span<const Addr> trace) {
  BennettKruskalAnalyzer analyzer;
  analyzer.analyze(trace);
  return analyzer.histogram();
}

}  // namespace parda
