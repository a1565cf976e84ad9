// Tests for the multi-phase online algorithm (Algorithms 5-6): streaming
// through a TracePipe must give exactly the offline/sequential result, for
// every phase size, rank count, and cache bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/parda.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"

#include "support/run_parda.hpp"

namespace parda {
namespace {

using test_support::run_parda_file;
using test_support::run_parda_pipe;

std::vector<Addr> stream_trace(std::size_t n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(300, 0.8, seed, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(100, 1));
  MixWorkload mix(std::move(kids), {0.6, 0.4}, seed);
  return generate_trace(mix, n);
}

/// Runs the streaming analysis with a producer thread feeding the pipe in
/// blocks of `block_words`.
PardaResult run_streamed(const std::vector<Addr>& trace,
                         const PardaOptions& options,
                         std::size_t pipe_capacity,
                         std::size_t block_words) {
  TracePipe pipe(pipe_capacity);
  std::thread producer([&] {
    for (std::size_t at = 0; at < trace.size(); at += block_words) {
      const std::size_t hi = std::min(at + block_words, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
    pipe.close();
  });
  PardaResult result = run_parda_pipe(pipe, options);
  producer.join();
  return result;
}

class StreamEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(StreamEquivalenceTest, MatchesSequential) {
  const auto [np, chunk] = GetParam();
  const auto trace = stream_trace(7000, 11);
  const Histogram expected = olken_analysis(trace);

  PardaOptions options;
  options.num_procs = np;
  options.chunk_words = chunk;
  const PardaResult result = run_streamed(trace, options, 2048, 513);
  EXPECT_TRUE(result.hist == expected)
      << "np=" << np << " C=" << chunk;
}

INSTANTIATE_TEST_SUITE_P(
    PhaseGeometry, StreamEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(64, 100, 1000, 4096)),
    [](const auto& info) {
      return "np" + std::to_string(std::get<0>(info.param)) + "_C" +
             std::to_string(std::get<1>(info.param));
    });

TEST(StreamTest, ExactPhaseMultipleLength) {
  // Trace length an exact multiple of np*C: the final phase is full and a
  // zero-length phase terminates the loop.
  const auto trace = stream_trace(4096, 3);
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 256;  // 4 * 256 = 1024 divides 4096
  const PardaResult result = run_streamed(trace, options, 512, 128);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, SinglePhaseWholeTrace) {
  const auto trace = stream_trace(900, 4);
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 1000;  // phase swallows everything
  const PardaResult result = run_streamed(trace, options, 4096, 900);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, ManyTinyPhases) {
  // Phases of np*C = 6 references stress the per-phase state reduction
  // onto rank 0.
  const auto trace = stream_trace(1000, 5);
  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 2;
  const PardaResult result = run_streamed(trace, options, 64, 7);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(StreamTest, EmptyStream) {
  TracePipe pipe(64);
  pipe.close();
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = run_parda_pipe(pipe, options);
  EXPECT_EQ(result.hist.total(), 0u);
}

TEST(StreamTest, StreamShorterThanOnePhase) {
  const std::vector<Addr> trace{1, 2, 1, 3, 2};
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 100;
  const PardaResult result = run_streamed(trace, options, 64, 2);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

class StreamBoundedTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(StreamBoundedTest, BoundedStreamingMatchesBoundedSequential) {
  const auto [bound, chunk] = GetParam();
  const auto trace = stream_trace(5000, 21);
  const Histogram expected = bounded_analysis(trace, bound);

  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = chunk;
  options.bound = bound;
  const PardaResult result = run_streamed(trace, options, 1024, 200);
  EXPECT_TRUE(result.hist == expected)
      << "B=" << bound << " C=" << chunk;
}

INSTANTIATE_TEST_SUITE_P(
    BoundAndPhase, StreamBoundedTest,
    ::testing::Combine(::testing::Values(1, 8, 64, 400),
                       ::testing::Values(64, 500)),
    [](const auto& info) {
      return "B" + std::to_string(std::get<0>(info.param)) + "_C" +
             std::to_string(std::get<1>(info.param));
    });

/// A streamed trace of `phases` phases of 4 chunks of `chunk` references:
/// chunk r of each phase draws from footprints[r] addresses of a window
/// that slides by 5 addresses per phase, so reuses cross ranks and phases.
std::vector<Addr> footprint_trace(const std::array<Addr, 4>& footprints,
                                  std::size_t chunk, std::size_t phases,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Addr> trace;
  for (std::size_t phase = 0; phase < phases; ++phase) {
    for (const Addr footprint : footprints) {
      for (std::size_t i = 0; i < chunk; ++i) {
        trace.push_back(5 * phase + rng.below(footprint));
      }
    }
  }
  return trace;
}

std::size_t distinct_in(std::span<const Addr> refs) {
  std::vector<Addr> sorted(refs.begin(), refs.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

TEST(StreamBoundedBudgetTest, SaturatedRankInTheMiddle) {
  // Algorithm 7's budget with a saturated rank 2 (its chunks hold more
  // than B distinct addresses) and an unsaturated rank 3 to its right;
  // rank 1 saturates in one shape and not in the other. The saturated
  // ranks swallow records and leave stale replicas to their left, which
  // Algorithm 6 must not carry into the next phase.
  const int np = 4;
  const std::size_t chunk = 64;
  const std::uint64_t bound = 16;
  const std::size_t phases = 12;
  using Footprints = std::array<Addr, 4>;
  for (const Footprints& footprints :
       {Footprints{60, 60, 60, 8}, Footprints{60, 8, 60, 8}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto trace = footprint_trace(footprints, chunk, phases, seed);
      for (std::size_t at = 0; at < trace.size(); at += np * chunk) {
        const std::span<const Addr> phase(trace.data() + at, np * chunk);
        ASSERT_GT(distinct_in(phase.subspan(2 * chunk, chunk)), bound);
        ASSERT_LT(distinct_in(phase.subspan(3 * chunk, chunk)), bound);
      }
      PardaOptions options;
      options.num_procs = np;
      options.chunk_words = chunk;
      options.bound = bound;
      const PardaResult result = run_streamed(trace, options, 1024, 100);
      EXPECT_TRUE(result.hist == bounded_analysis(trace, bound))
          << "rank 1 footprint " << footprints[1] << " seed " << seed;
    }
  }
}

TEST(StreamBoundedBudgetTest, PhaseForwardsAtMostTheBudget) {
  // Each rank's chunk emits at most B records per phase and rank p
  // forwards only records that started at ranks p..np-1, so a bounded
  // phase forwards at most np(np-1)/2 * B records, however many distinct
  // addresses its chunks hold. Offline analysis is the one-phase case.
  const int np = 4;
  const std::size_t chunk = 256;
  const std::uint64_t bound = 32;
  ZipfWorkload w(40000, 0.5, 9);
  const std::vector<Addr> trace = generate_trace(w, 30000);
  PardaOptions options;
  options.num_procs = np;
  options.chunk_words = chunk;
  options.bound = bound;
  const std::uint64_t per_phase = np * (np - 1) / 2 * bound;
  const auto forwarded = [](const PardaResult& r) {
    std::uint64_t sum = 0;
    for (const RankProfile& p : r.profiles) sum += p.records_forwarded;
    return sum;
  };

  const PardaResult streamed = run_streamed(trace, options, 4096, 1000);
  ASSERT_TRUE(streamed.hist == bounded_analysis(trace, bound));
  ASSERT_EQ(streamed.profiles.size(), static_cast<std::size_t>(np));
  EXPECT_LE(forwarded(streamed), streamed.profiles[0].phases * per_phase);

  const PardaResult offline = test_support::run_parda(trace, options);
  ASSERT_TRUE(offline.hist == bounded_analysis(trace, bound));
  EXPECT_LE(forwarded(offline), per_phase);
}

TEST(FileAnalysisTest, StreamsTraceFileCorrectly) {
  const auto trace = stream_trace(6000, 33);
  const std::string path =
      std::string(::testing::TempDir()) + "/file_analysis.trc";
  write_trace_binary(path, trace);

  PardaOptions options;
  options.num_procs = 3;
  options.chunk_words = 500;
  const PardaResult result =
      run_parda_file(path, options, /*pipe_words=*/2048);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
  std::remove(path.c_str());
}

TEST(FileAnalysisTest, MissingFileThrows) {
  PardaOptions options;
  options.num_procs = 2;
  EXPECT_THROW(run_parda_file("/does/not/exist.trc", options),
               std::runtime_error);
}

TEST(FileAnalysisTest, BoundedFileAnalysis) {
  const auto trace = stream_trace(4000, 41);
  const std::string path =
      std::string(::testing::TempDir()) + "/file_analysis_bounded.trc";
  write_trace_binary(path, trace);
  PardaOptions options;
  options.num_procs = 4;
  options.bound = 64;
  options.chunk_words = 256;
  const PardaResult result = run_parda_file(path, options, 1024);
  EXPECT_TRUE(result.hist == bounded_analysis(trace, 64));
  std::remove(path.c_str());
}

TEST(StreamTest, StreamingScatterCopiesEachBlockOnce) {
  // The streaming driver reads each phase block once and scatters chunk
  // views of that single block: O(1) copies of each phase block, observable
  // through the runtime's bytes_copied counter. Only tiny control traffic
  // (phase headers, per-rank profiles) may be copied; the trace words
  // themselves must move as shared views.
  const auto trace = stream_trace(40000, 17);
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = 1000;
  const PardaResult result = run_streamed(trace, options, 8192, 2048);
  EXPECT_TRUE(result.hist == olken_analysis(trace));

  const std::uint64_t trace_bytes = trace.size() * sizeof(Addr);
  // Copied bytes stay bounded by control traffic — far below even a single
  // duplication of the trace.
  EXPECT_LT(result.stats.total_bytes_copied(), trace_bytes / 8)
      << "copied=" << result.stats.total_bytes_copied();
  // The bulk of the data (chunks for np-1 non-root ranks, plus pipeline
  // and state handoffs) moves as shared or moved buffers.
  EXPECT_GE(result.stats.total_bytes_shared(), trace_bytes / 2)
      << "shared=" << result.stats.total_bytes_shared();
}

TEST(StreamTest, StateReductionMovesOnlyThePhasesNewEntries) {
  // Algorithm 6 keeps the global state on rank 0 and appends the other
  // ranks' exports, so a phase moves at most (np-1)*C state records no
  // matter how large the resident set grows, and the last (short) phase,
  // which no phase follows, moves none. A footprint of at least
  // 10 * np*C distinct addresses makes any O(resident) reduction overrun
  // the bound many times over.
  const int np = 4;
  const std::size_t chunk = 256;
  ZipfWorkload w(40000, 0.5, 9);
  const std::vector<Addr> trace = generate_trace(w, 60000);
  const Histogram expected = olken_analysis(trace);
  ASSERT_GE(expected.infinities(), 10 * np * chunk);  // distinct addresses

  PardaOptions options;
  options.num_procs = np;
  options.chunk_words = chunk;
  const PardaResult result = run_streamed(trace, options, 4096, 1000);
  ASSERT_TRUE(result.hist == expected);
  ASSERT_EQ(result.profiles.size(), static_cast<std::size_t>(np));

  // Everything else the run sends, counted exactly or bounded above: the
  // scattered chunks, the forwarded local infinities, one histogram per
  // non-root rank, and the phase headers and profiles.
  const std::uint64_t ranks = np;
  std::uint64_t forwarded = 0;
  for (const RankProfile& p : result.profiles) {
    forwarded += p.records_forwarded;
  }
  const std::uint64_t phases = result.profiles[0].phases;
  ASSERT_NE(trace.size() % (ranks * chunk), 0u) << "the last phase is short";
  const std::uint64_t hist_bytes =
      (ranks - 1) * sizeof(std::uint64_t) * (4 + result.hist.max_distance());
  const std::uint64_t control =
      phases * ranks * sizeof(std::uint64_t) + ranks * sizeof(RankProfile);
  const std::uint64_t other = trace.size() * sizeof(Addr) +
                              forwarded * sizeof(InfRecord) + hist_bytes +
                              control;
  const std::uint64_t state_bound =
      (phases - 1) * (ranks - 1) * chunk * sizeof(InfRecord);
  EXPECT_LE(result.stats.total_bytes(), other + state_bound)
      << "phases=" << phases << " other=" << other
      << " state_bound=" << state_bound;
}

TEST(StreamTest, ChunkTimesRanksOverflowIsRejected) {
  // np*C sizes the phase block; a product that wraps would read nothing.
  TracePipe pipe(64);
  pipe.close();
  PardaOptions options;
  options.num_procs = 4;
  options.chunk_words = SIZE_MAX / 2;
  EXPECT_THROW(run_parda_pipe(pipe, options), CheckError);
}

TEST(StreamTest, CrossPhaseReuseResolved) {
  // A reuse pair that straddles a phase boundary: x at positions 0 and
  // just past the first phase; the distance must be the number of distinct
  // elements between, resolved via the carried global state.
  std::vector<Addr> trace;
  trace.push_back(999);
  for (Addr a = 0; a < 30; ++a) trace.push_back(a);  // 30 distinct
  trace.push_back(999);  // distance 30
  PardaOptions options;
  options.num_procs = 2;
  options.chunk_words = 8;  // phase = 16 refs, reuse spans phases
  const PardaResult result = run_streamed(trace, options, 64, 5);
  EXPECT_EQ(result.hist.at(30), 1u);
  EXPECT_EQ(result.hist.infinities(), 31u);
}

}  // namespace
}  // namespace parda
