// The unified sequential-engine API: every reuse distance engine — Naive,
// Olken, BennettKruskal, Bounded, Approx, LruChain, FixedSizeSampler —
// conforms to the ReuseAnalyzer concept below (checked by static_asserts
// at the bottom of each engine header), so drivers, benches, and the
// observability layer talk to all seven through one shape:
//
//   analyzer.process(addr);         // one reference (may defer, e.g. B&K)
//   analyzer.process_block(block);  // the same for each reference of block
//   analyzer.finish();              // flush deferred work; idempotent
//   analyzer.histogram();           // the result (valid after finish())
//   analyzer.stats();               // structural counters for metrics
//
// The distance-returning access() members remain on the engines that can
// answer online; process() is the portable surface (Bennett & Kruskal is
// two-pass and cannot return distances online, which is why the concept is
// built around process/finish rather than access).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "hist/histogram.hpp"
#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace parda {

/// Structural work counters every engine can report. Fields an engine
/// cannot measure stay 0 (the naive stack has no hash table; only the
/// bounded engine evicts).
struct EngineStats {
  std::uint64_t references = 0;      // process() calls
  std::uint64_t finite = 0;          // finite distances in histogram()
  std::uint64_t infinities = 0;      // infinity bin of histogram()
  std::uint64_t hash_probes = 0;     // AddrMap slot inspections
  std::uint64_t tree_rotations = 0;  // rotations (splay/AVL)
  std::uint64_t tree_splays = 0;     // splay-to-root operations
  std::uint64_t evictions = 0;       // LRU evictions (bounded engines)
  std::uint64_t marker_hops = 0;     // log2-marker slides (LruChain)
  std::uint64_t peak_footprint = 0;  // max distinct addresses tracked

  void publish(obs::Registry& reg, std::string_view prefix) const;
};

/// Publication under "<prefix>.references", "<prefix>.hash_probes", ...
/// attributed to the calling thread's rank shard. Cold path: nine name
/// lookups per call.
inline void EngineStats::publish(obs::Registry& reg,
                                 std::string_view prefix) const {
  const auto name = [prefix](std::string_view suffix) {
    std::string n(prefix);
    n.append(suffix);
    return n;
  };
  reg.counter(name(".references")).add(references);
  reg.counter(name(".finite")).add(finite);
  reg.counter(name(".infinities")).add(infinities);
  reg.counter(name(".hash_probes")).add(hash_probes);
  reg.counter(name(".tree_rotations")).add(tree_rotations);
  reg.counter(name(".tree_splays")).add(tree_splays);
  reg.counter(name(".evictions")).add(evictions);
  reg.counter(name(".marker_hops")).add(marker_hops);
  reg.gauge(name(".peak_footprint")).set_max(peak_footprint);
}

/// The engine concept. histogram() contents are only final after finish();
/// finish() must be idempotent and neither process() nor process_block()
/// may be called after it. process_block(b) must be exactly equivalent to
/// calling process(z) for each z of b in order — it exists so an engine
/// can software-prefetch its hash probes a few references ahead and skip
/// per-call overhead, not to change results (seq_test checks the
/// equivalence for every engine).
template <typename A>
concept ReuseAnalyzer = requires(A a, const A ca, Addr z,
                                 std::span<const Addr> block) {
  { a.process(z) } -> std::same_as<void>;
  { a.process_block(block) } -> std::same_as<void>;
  { a.finish() } -> std::same_as<void>;
  { ca.histogram() } -> std::same_as<const Histogram&>;
  { ca.stats() } -> std::same_as<EngineStats>;
};

/// Runs a whole trace through any conforming engine and returns the
/// finished histogram (the one-liner behind the per-engine *_analysis
/// convenience functions). Hands the trace down as one block.
template <ReuseAnalyzer A>
Histogram analyze_trace(A& analyzer, std::span<const Addr> trace) {
  analyzer.process_block(trace);
  analyzer.finish();
  return analyzer.histogram();
}

namespace detail {

/// Structural counters from tree engines that expose them; engines that
/// don't (e.g. VectorTree) contribute zeros.
template <typename Tree>
void fill_tree_stats(const Tree& tree, EngineStats& s) {
  if constexpr (requires { tree.rotation_count(); }) {
    s.tree_rotations = tree.rotation_count();
  }
  if constexpr (requires { tree.splay_count(); }) {
    s.tree_splays = tree.splay_count();
  }
}

}  // namespace detail

}  // namespace parda
