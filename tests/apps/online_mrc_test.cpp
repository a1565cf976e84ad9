#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "apps/online_mrc.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "hist/mrc.hpp"
#include "seq/bounded.hpp"
#include "workload/generators.hpp"

#include "support/run_parda.hpp"

namespace parda {
namespace {

using test_support::run_parda;

TEST(OnlineMrcTest, NoDecayMatchesBoundedAnalysis) {
  ZipfWorkload w(300, 0.9, 3);
  const auto trace = generate_trace(w, 20000);
  OnlineMrcMonitor monitor(/*bound=*/256, /*window=*/1000, /*decay=*/1.0);
  for (Addr a : trace) monitor.access(a);
  const Histogram reference = bounded_analysis(trace, 256);
  EXPECT_TRUE(monitor.snapshot() == reference);
  for (std::uint64_t c : {1u, 16u, 128u, 256u}) {
    EXPECT_DOUBLE_EQ(monitor.miss_ratio(c), miss_ratio(reference, c));
  }
  EXPECT_EQ(monitor.references_seen(), trace.size());
  EXPECT_EQ(monitor.windows_completed(), trace.size() / 1000);
}

TEST(OnlineMrcTest, BatchedFeedMatchesPerReferenceLoop) {
  ZipfWorkload w(300, 0.9, 13);
  const auto trace = generate_trace(w, 23500);  // not a window multiple
  OnlineMrcMonitor batched(256, 1000, 0.75);
  // Feed in awkward batch sizes so segments straddle window boundaries.
  std::span<const Addr> rest(trace);
  for (std::size_t take = 1; !rest.empty(); take = take * 2 + 1) {
    const std::size_t n = std::min(take, rest.size());
    batched.feed(rest.first(n));
    rest = rest.subspan(n);
  }
  OnlineMrcMonitor looped(256, 1000, 0.75);
  for (Addr a : trace) looped.access(a);
  EXPECT_TRUE(batched.snapshot() == looped.snapshot());
  EXPECT_EQ(batched.references_seen(), looped.references_seen());
  EXPECT_EQ(batched.windows_completed(), looped.windows_completed());
}

TEST(OnlineMrcTest, DecayTracksPhaseChange) {
  // Phase 1: tiny hot set (low miss ratio at C=64). Phase 2: huge uniform
  // (high miss ratio). A decaying monitor converges to phase 2's regime;
  // a non-decaying one stays anchored to the long phase-1 history.
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(32, 1.2, 5, 0));
  kids.push_back(std::make_unique<UniformRandomWorkload>(100000, 7, 1));
  PhasedWorkload w(std::move(kids), 50000);
  const auto trace = generate_trace(w, 100000);

  OnlineMrcMonitor decaying(1024, 2000, 0.5);
  OnlineMrcMonitor cumulative(1024, 2000, 1.0);
  for (Addr a : trace) {
    decaying.access(a);
    cumulative.access(a);
  }
  const double fresh = decaying.miss_ratio(64);
  const double stale = cumulative.miss_ratio(64);
  // Phase 2 misses virtually everything at C=64.
  EXPECT_GT(fresh, 0.9);
  // The cumulative monitor still averages in the hit-heavy first phase.
  EXPECT_LT(stale, 0.7);
}

TEST(OnlineMrcTest, PartialWindowIsVisibleImmediately) {
  OnlineMrcMonitor monitor(64, 1000000, 1.0);  // window never completes
  monitor.access(1);
  monitor.access(1);
  EXPECT_EQ(monitor.references_seen(), 2u);
  EXPECT_EQ(monitor.windows_completed(), 0u);
  // One infinity + one distance-0 hit: miss ratio at C=1 is 0.5.
  EXPECT_DOUBLE_EQ(monitor.miss_ratio(1), 0.5);
}

TEST(OnlineMrcTest, StateStaysBounded) {
  OnlineMrcMonitor monitor(128, 512, 0.9);
  UniformRandomWorkload w(50000, 9);
  const auto trace = generate_trace(w, 30000);
  for (Addr a : trace) monitor.access(a);
  EXPECT_EQ(monitor.bound(), 128u);
  // Everything beyond the bound is folded into infinities: no finite
  // distance can reach the bound.
  EXPECT_LT(monitor.snapshot().max_distance(), 128u);
  EXPECT_GT(monitor.snapshot().infinities(), 0u);
}

TEST(WindowedMrcTest, MatchesPerWindowColdAnalysisExactly) {
  // The runtime-backed monitor analyzes each completed window on the shared
  // pool; its aggregate must equal folding per-window one-shot
  // parda_analyze results (the old path: a fresh thread set per window).
  ZipfWorkload w(400, 0.9, 11);
  const auto trace = generate_trace(w, 12000);
  constexpr std::uint64_t kBound = 256;
  constexpr std::uint64_t kWindow = 1500;
  constexpr double kDecay = 0.5;

  core::PardaRuntime runtime;
  WindowedMrcMonitor monitor(runtime, kBound, kWindow, kDecay,
                             /*num_procs=*/2);
  for (Addr a : trace) monitor.access(a);

  PardaOptions options;
  options.num_procs = 2;
  options.bound = kBound;
  Histogram expected;
  std::size_t pos = 0;
  while (pos + kWindow <= trace.size()) {
    const std::span<const Addr> window(trace.data() + pos, kWindow);
    decayed_fold(expected, run_parda(window, options).hist, kDecay);
    pos += kWindow;
  }
  if (pos < trace.size()) {
    const std::span<const Addr> tail(trace.data() + pos, trace.size() - pos);
    expected.merge(run_parda(tail, options).hist);
  }

  EXPECT_TRUE(monitor.snapshot() == expected);
  EXPECT_EQ(monitor.references_seen(), trace.size());
  EXPECT_EQ(monitor.windows_completed(), trace.size() / kWindow);
  // Every window job reused the runtime's workers: one World, many reuses.
  EXPECT_EQ(runtime.capacity(), 2);
  EXPECT_GE(runtime.world_reuses(), monitor.windows_completed() - 1);
}

TEST(WindowedMrcTest, BatchedFeedMatchesPerReferenceLoop) {
  ZipfWorkload w(250, 0.9, 17);
  const auto trace = generate_trace(w, 7300);  // not a window multiple
  core::PardaRuntime runtime;
  WindowedMrcMonitor batched(runtime, 128, 1500, 0.5, /*num_procs=*/2);
  std::span<const Addr> rest(trace);
  for (std::size_t take = 7; !rest.empty(); take += 601) {
    const std::size_t n = std::min(take, rest.size());
    batched.feed(rest.first(n));
    rest = rest.subspan(n);
  }
  WindowedMrcMonitor looped(runtime, 128, 1500, 0.5, /*num_procs=*/2);
  for (Addr a : trace) looped.access(a);
  EXPECT_TRUE(batched.snapshot() == looped.snapshot());
  EXPECT_EQ(batched.windows_completed(), looped.windows_completed());
}

TEST(WindowedMrcTest, MissRatioAgreesWithInlineMonitorOnWindowMultiples) {
  // With decay=1 and window-aligned feeds, the windowed monitor differs
  // from the inline one only by cross-window reuses becoming infinities —
  // both count every reference exactly once.
  ZipfWorkload w(200, 1.0, 13);
  const auto trace = generate_trace(w, 8000);
  core::PardaRuntime runtime;
  WindowedMrcMonitor windowed(runtime, 128, 2000, 1.0, /*num_procs=*/2);
  OnlineMrcMonitor inline_monitor(128, 2000, 1.0);
  for (Addr a : trace) {
    windowed.access(a);
    inline_monitor.access(a);
  }
  const Histogram ws = windowed.snapshot();
  const Histogram is = inline_monitor.snapshot();
  EXPECT_EQ(ws.total(), is.total());
  EXPECT_GE(ws.infinities(), is.infinities());
}

}  // namespace
}  // namespace parda
