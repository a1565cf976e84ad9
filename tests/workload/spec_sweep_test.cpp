// Parameterized sweep over every SPEC CPU2006 profile: each synthetic
// workload must be deterministic, have a sane footprint, and analyze to
// identical histograms through the sequential and parallel engines.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "core/parda.hpp"
#include "hist/mrc.hpp"
#include "seq/olken.hpp"
#include "workload/spec.hpp"

#include "support/run_parda.hpp"

namespace parda {
namespace {

using test_support::run_parda;

class SpecProfileSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  const SpecProfile& profile() const {
    return spec_profiles()[GetParam()];
  }
};

TEST_P(SpecProfileSweep, DeterministicStream) {
  auto a = make_spec_workload(profile(), 200000, 11);
  auto b = make_spec_workload(profile(), 200000, 11);
  EXPECT_EQ(generate_trace(*a, 4000), generate_trace(*b, 4000));
}

TEST_P(SpecProfileSweep, SeedChangesStreamForStochasticProfiles) {
  auto a = make_spec_workload(profile(), 200000, 1);
  auto b = make_spec_workload(profile(), 200000, 2);
  const auto ta = generate_trace(*a, 4000);
  const auto tb = generate_trace(*b, 4000);
  // Purely deterministic generators (libquantum's sweep) may coincide;
  // everything else should diverge.
  if (profile().name != "libquantum") {
    EXPECT_NE(ta, tb) << profile().name;
  }
}

TEST_P(SpecProfileSweep, ParallelEqualsSequential) {
  auto w = make_spec_workload(profile(), 300000, 5);
  const auto trace = generate_trace(*w, 5000);
  const Histogram expected = olken_analysis(trace);
  PardaOptions options;
  options.num_procs = 3;
  EXPECT_TRUE(run_parda(trace, options).hist == expected)
      << profile().name;
}

TEST_P(SpecProfileSweep, FootprintWithinSaneBounds) {
  const std::uint64_t scale = 100000;
  auto w = make_spec_workload(profile(), scale, 3);
  const auto trace = generate_trace(*w, 30000);
  std::unordered_set<Addr> distinct(trace.begin(), trace.end());
  // Footprint should be within an order of magnitude of the scaled M
  // (mixtures only approach their nominal footprint asymptotically).
  const auto target = static_cast<double>(profile().scaled_m(scale));
  EXPECT_GT(static_cast<double>(distinct.size()), target / 12.0)
      << profile().name;
  EXPECT_LT(static_cast<double>(distinct.size()), target * 12.0 + 256.0)
      << profile().name;
}

TEST_P(SpecProfileSweep, MissRatioCurveIsMonotone) {
  auto w = make_spec_workload(profile(), 300000, 9);
  const auto trace = generate_trace(*w, 8000);
  const Histogram hist = olken_analysis(trace);
  double prev = 1.1;
  for (std::uint64_t c = 1; c <= hist.max_distance() + 2; c *= 2) {
    const double r = miss_ratio(hist, c);
    EXPECT_LE(r, prev + 1e-12);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpecProfileSweep,
    ::testing::Range<std::size_t>(0, 15),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(spec_profiles()[info.param].name);
    });

}  // namespace
}  // namespace parda
