#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "seq/approx.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "seq/fixed_size_sampler.hpp"
#include "seq/lru_chain.hpp"
#include "seq/naive.hpp"
#include "seq/olken.hpp"
#include "tree/avl_tree.hpp"
#include "tree/vector_tree.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

// The running example of the paper: Table I.
const std::vector<Addr> kTable1{'d', 'a', 'c', 'b', 'c',
                                'c', 'g', 'e', 'f', 'a'};

TEST(NaiveStackTest, EmptyTrace) {
  const Histogram h = naive_stack_analysis({});
  EXPECT_EQ(h.total(), 0u);
}

TEST(NaiveStackTest, Table1Example) {
  NaiveStackAnalyzer analyzer;
  std::vector<Distance> distances;
  for (Addr a : kTable1) distances.push_back(analyzer.access(a));
  const std::vector<Distance> expected{
      kInfiniteDistance, kInfiniteDistance, kInfiniteDistance,
      kInfiniteDistance, 1,
      0,                 kInfiniteDistance, kInfiniteDistance,
      kInfiniteDistance, 5};
  EXPECT_EQ(distances, expected);
}

TEST(NaiveStackTest, RepeatedSingleAddress) {
  NaiveStackAnalyzer analyzer;
  EXPECT_EQ(analyzer.access(7), kInfiniteDistance);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(analyzer.access(7), 0u);
  EXPECT_EQ(analyzer.footprint(), 1u);
}

template <typename Tree>
class OlkenEngineTest : public ::testing::Test {};

using Engines = ::testing::Types<SplayTree, AvlTree, VectorTree>;
TYPED_TEST_SUITE(OlkenEngineTest, Engines);

TYPED_TEST(OlkenEngineTest, Table1Example) {
  OlkenAnalyzer<TypeParam> analyzer;
  std::vector<Distance> distances;
  for (Addr a : kTable1) distances.push_back(analyzer.access(a));
  EXPECT_EQ(distances[4], 1u);
  EXPECT_EQ(distances[5], 0u);
  EXPECT_EQ(distances[9], 5u);  // the worked Figure 1 distance
  EXPECT_EQ(analyzer.footprint(), 7u);
  EXPECT_EQ(analyzer.time(), 10u);
}

TYPED_TEST(OlkenEngineTest, MatchesNaiveOnRandomTraces) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    UniformRandomWorkload w(64, seed);
    const auto trace = generate_trace(w, 4000);
    EXPECT_TRUE(olken_analysis<TypeParam>(trace) ==
                naive_stack_analysis(trace))
        << "seed " << seed;
  }
}

TYPED_TEST(OlkenEngineTest, MatchesNaiveOnSkewedTraces) {
  ZipfWorkload w(200, 1.0, 5);
  const auto trace = generate_trace(w, 5000);
  EXPECT_TRUE(olken_analysis<TypeParam>(trace) == naive_stack_analysis(trace));
}

TYPED_TEST(OlkenEngineTest, HistogramMassInvariants) {
  UniformRandomWorkload w(100, 9);
  const auto trace = generate_trace(w, 3000);
  const Histogram h = olken_analysis<TypeParam>(trace);
  EXPECT_EQ(h.total(), trace.size());
  // Unbounded analysis: one infinity per distinct address.
  std::vector<Addr> unique = trace;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(h.infinities(), unique.size());
  // No distance can reach the footprint.
  EXPECT_LT(h.max_distance(), unique.size());
}

TEST(OlkenAnalyzerTest, ResetClearsState) {
  OlkenAnalyzer<SplayTree> analyzer;
  analyzer.access(1);
  analyzer.access(2);
  analyzer.reset();
  EXPECT_EQ(analyzer.time(), 0u);
  EXPECT_EQ(analyzer.footprint(), 0u);
  EXPECT_EQ(analyzer.access(1), kInfiniteDistance);
}

TEST(OlkenAnalyzerTest, ImmediateReuseIsDistanceZero) {
  OlkenAnalyzer<SplayTree> analyzer;
  analyzer.access(42);
  EXPECT_EQ(analyzer.access(42), 0u);
  EXPECT_EQ(analyzer.access(42), 0u);
}

// --- Bounded analysis --------------------------------------------------------

class BoundedSemanticsTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(BoundedSemanticsTest, ExactBelowBoundInfinityAtOrAbove) {
  const auto [bound, seed] = GetParam();
  ZipfWorkload w(300, 0.7, static_cast<std::uint64_t>(seed));
  const auto trace = generate_trace(w, 6000);
  const Histogram exact = olken_analysis(trace);
  const Histogram bounded = bounded_analysis(trace, bound);

  EXPECT_EQ(bounded.total(), exact.total());
  for (Distance d = 0; d < bound; ++d) {
    EXPECT_EQ(bounded.at(d), exact.at(d)) << "d=" << d << " B=" << bound;
  }
  // No finite mass survives at or beyond the bound...
  for (Distance d = bound; d <= bounded.max_distance(); ++d) {
    EXPECT_EQ(bounded.at(d), 0u) << "d=" << d;
  }
  // ...because everything at or above the bound became an infinity.
  std::uint64_t folded = exact.infinities();
  for (Distance d = bound; d <= exact.max_distance(); ++d) {
    folded += exact.at(d);
  }
  EXPECT_EQ(bounded.infinities(), folded);
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, BoundedSemanticsTest,
    ::testing::Combine(::testing::Values(1, 2, 8, 32, 128, 299, 300, 512),
                       ::testing::Values(1, 2)));

TEST(BoundedAnalyzerTest, ResidencyNeverExceedsBound) {
  BoundedAnalyzer<SplayTree> analyzer(16);
  UniformRandomWorkload w(1000, 3);
  const auto trace = generate_trace(w, 2000);
  for (Addr a : trace) {
    analyzer.access(a);
    EXPECT_LE(analyzer.footprint(), 16u);
  }
}

TEST(BoundedAnalyzerTest, BoundLargerThanFootprintIsExact) {
  UniformRandomWorkload w(50, 4);
  const auto trace = generate_trace(w, 2000);
  EXPECT_TRUE(bounded_analysis(trace, 1 << 20) == olken_analysis(trace));
}

TEST(BoundedAnalyzerTest, BoundOneOnlyCountsImmediateReuse) {
  const std::vector<Addr> trace{1, 1, 2, 2, 2, 1};
  const Histogram h = bounded_analysis(trace, 1);
  EXPECT_EQ(h.at(0), 3u);  // 1@1, 2@3, 2@4
  EXPECT_EQ(h.infinities(), 3u);
}

// --- One batched surface -----------------------------------------------------

/// A fresh engine of each ReuseAnalyzer type, configured so its
/// interesting paths run on a 512-address trace: the bounded engines
/// evict, the samplers drop references.
template <typename A>
A make_engine() {
  return A();
}
template <>
LruChainAnalyzer make_engine() {
  return LruChainAnalyzer(100);
}
template <>
BoundedAnalyzer<SplayTree> make_engine() {
  return BoundedAnalyzer<SplayTree>(32);
}
template <>
ApproxAnalyzer make_engine() {
  return ApproxAnalyzer(0.25, 7);
}
template <>
FixedSizeSampler make_engine() {
  return FixedSizeSampler(64);
}

template <typename A>
class ProcessBlockTest : public ::testing::Test {};

using Analyzers =
    ::testing::Types<LruChainAnalyzer, OlkenAnalyzer<SplayTree>,
                     BennettKruskalAnalyzer, BoundedAnalyzer<SplayTree>,
                     NaiveStackAnalyzer, ApproxAnalyzer, FixedSizeSampler>;
TYPED_TEST_SUITE(ProcessBlockTest, Analyzers);

// process_block(b) must equal process(z) for each z of b in order — in
// the histogram and in every structural counter (the hash probes a block
// prefetches must not be counted). Two blocks cover a resumed batch.
TYPED_TEST(ProcessBlockTest, EqualsPerReferenceLoop) {
  static_assert(ReuseAnalyzer<TypeParam>);
  UniformRandomWorkload w(512, 29);
  const auto trace = generate_trace(w, 8000);
  TypeParam batched = make_engine<TypeParam>();
  batched.process_block(std::span<const Addr>(trace).first(5000));
  batched.process_block(std::span<const Addr>(trace).subspan(5000));
  batched.finish();
  TypeParam looped = make_engine<TypeParam>();
  for (Addr z : trace) looped.process(z);
  looped.finish();

  EXPECT_TRUE(batched.histogram() == looped.histogram());
  const EngineStats a = batched.stats();
  const EngineStats b = looped.stats();
  EXPECT_EQ(a.references, trace.size());
  EXPECT_EQ(b.references, trace.size());
  EXPECT_EQ(a.finite, b.finite);
  EXPECT_EQ(a.infinities, b.infinities);
  EXPECT_EQ(a.hash_probes, b.hash_probes);
  EXPECT_EQ(a.tree_rotations, b.tree_rotations);
  EXPECT_EQ(a.tree_splays, b.tree_splays);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.marker_hops, b.marker_hops);
  EXPECT_EQ(a.peak_footprint, b.peak_footprint);
}

}  // namespace
}  // namespace parda
