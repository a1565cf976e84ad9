// Tests for the alternative sequential engines: Bennett-Kruskal (exact,
// Fenwick-based, paper ref [2]) and the sampling approximation (refs
// [4][19][22] family).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "hist/mrc.hpp"
#include "seq/approx.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/naive.hpp"
#include "seq/olken.hpp"
#include "workload/generators.hpp"
#include "workload/spec.hpp"

#include "support/run_parda.hpp"

namespace parda {
namespace {

using test_support::run_parda;

TEST(BennettKruskalTest, EmptyTrace) {
  EXPECT_EQ(bennett_kruskal_analysis({}).total(), 0u);
}

TEST(BennettKruskalTest, Table1Example) {
  const std::vector<Addr> trace{'d', 'a', 'c', 'b', 'c',
                                'c', 'g', 'e', 'f', 'a'};
  const Histogram h = bennett_kruskal_analysis(trace);
  EXPECT_EQ(h.infinities(), 7u);
  EXPECT_EQ(h.at(0), 1u);
  EXPECT_EQ(h.at(1), 1u);
  EXPECT_EQ(h.at(5), 1u);
}

TEST(BennettKruskalTest, MatchesOlkenOnRandomTraces) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    ZipfWorkload w(500, 0.9, seed);
    const auto trace = generate_trace(w, 8000);
    EXPECT_TRUE(bennett_kruskal_analysis(trace) == olken_analysis(trace))
        << seed;
  }
}

TEST(BennettKruskalTest, MatchesNaiveOnSpecProfile) {
  auto w = make_spec_workload("soplex", 400000, 3);
  const auto trace = generate_trace(*w, 3000);
  EXPECT_TRUE(bennett_kruskal_analysis(trace) ==
              naive_stack_analysis(trace));
}

TEST(SampleSelectionTest, RateBoundsMembership) {
  std::size_t selected = 0;
  for (Addr a = 0; a < 100000; ++a) {
    if (sample_selects(a, 0.1, 7)) ++selected;
  }
  // Binomial(100000, 0.1): ~10000 +- 300 (3 sigma ~285).
  EXPECT_NEAR(static_cast<double>(selected), 10000.0, 400.0);
}

TEST(SampleSelectionTest, DeterministicPerSeed) {
  for (Addr a = 0; a < 100; ++a) {
    EXPECT_EQ(sample_selects(a, 0.5, 3), sample_selects(a, 0.5, 3));
  }
}

TEST(SampleSelectionTest, RateOneSelectsEverything) {
  for (Addr a = 0; a < 1000; ++a) {
    EXPECT_TRUE(sample_selects(a, 1.0, 11));
  }
}

TEST(SampledAnalysisTest, RateOneIsExact) {
  UniformRandomWorkload w(200, 5);
  const auto trace = generate_trace(w, 5000);
  EXPECT_TRUE(sampled_analysis(trace, 1.0) == olken_analysis(trace));
}

TEST(SampledAnalysisTest, MrcCloseToExact) {
  // The headline property: the sampled MRC tracks the exact MRC.
  ZipfWorkload w(5000, 0.9, 17);
  const auto trace = generate_trace(w, 200000);
  const Histogram exact = olken_analysis(trace);
  const Histogram approx = sampled_analysis(trace, 0.1, 3);
  double worst = 0.0;
  for (std::uint64_t c = 16; c <= 8192; c *= 2) {
    const double err =
        std::abs(miss_ratio(exact, c) - miss_ratio(approx, c));
    worst = std::max(worst, err);
  }
  EXPECT_LT(worst, 0.05);
}

TEST(SampledAnalysisTest, TotalScalesBack) {
  UniformRandomWorkload w(3000, 9);
  const auto trace = generate_trace(w, 100000);
  const Histogram approx = sampled_analysis(trace, 0.25, 5);
  EXPECT_NEAR(static_cast<double>(approx.total()),
              static_cast<double>(trace.size()),
              static_cast<double>(trace.size()) * 0.1);
}

TEST(SampledAnalysisTest, ComposesWithParda) {
  ZipfWorkload w(2000, 1.0, 23);
  const auto trace = generate_trace(w, 60000);
  PardaOptions options;
  options.num_procs = 3;
  const Histogram via_parda = rescale_sampled_histogram(
      run_parda(sample_trace(trace, 0.2, 7), options).hist, 0.2);
  const Histogram via_seq = sampled_analysis(trace, 0.2, 7);
  // Same sample, same exact engine underneath: identical results.
  EXPECT_TRUE(via_parda == via_seq);
}

}  // namespace
}  // namespace parda
