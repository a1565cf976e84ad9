// Property tests for the parallel algorithm: Parda must equal the
// sequential analysis exactly, for every rank count, chunking, engine,
// bound, and with or without the space optimization (paper Section IV-B).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/parda.hpp"
#include "core/rank_state.hpp"
#include "seq/bounded.hpp"
#include "seq/olken.hpp"
#include "tree/avl_tree.hpp"
#include "tree/fenwick.hpp"
#include "workload/generators.hpp"
#include "workload/spec.hpp"

#include "support/run_parda.hpp"

namespace parda {
namespace {

using test_support::run_parda;

std::vector<Addr> mixed_trace(std::size_t n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Workload>> kids;
  kids.push_back(std::make_unique<ZipfWorkload>(400, 0.9, seed, 0));
  kids.push_back(std::make_unique<SequentialWorkload>(150, 1));
  kids.push_back(std::make_unique<PointerChaseWorkload>(200, seed + 1, 2));
  MixWorkload mix(std::move(kids), {0.5, 0.3, 0.2}, seed + 2);
  return generate_trace(mix, n);
}

class PardaEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PardaEquivalenceTest, MatchesSequentialUnbounded) {
  const auto [np, space_opt] = GetParam();
  const auto trace = mixed_trace(6000, 42);
  const Histogram expected = olken_analysis(trace);

  PardaOptions options;
  options.num_procs = np;
  options.space_optimized = space_opt;
  const PardaResult result = run_parda(trace, options);
  EXPECT_TRUE(result.hist == expected)
      << "np=" << np << " space_opt=" << space_opt;
  EXPECT_EQ(result.stats.ranks.size(), static_cast<std::size_t>(np));
}

INSTANTIATE_TEST_SUITE_P(
    RankAndOptimization, PardaEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 16),
                       ::testing::Bool()),
    [](const auto& info) {
      return "np" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_spaceopt" : "_plain");
    });

class PardaBoundedTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PardaBoundedTest, MatchesSequentialBounded) {
  const auto [np, bound] = GetParam();
  const auto trace = mixed_trace(6000, 1234);
  const Histogram expected = bounded_analysis(trace, bound);

  PardaOptions options;
  options.num_procs = np;
  options.bound = bound;
  const PardaResult result = run_parda(trace, options);
  EXPECT_TRUE(result.hist == expected) << "np=" << np << " B=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    RankAndBound, PardaBoundedTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 4, 16, 64, 256, 1024)),
    [](const auto& info) {
      return "np" + std::to_string(std::get<0>(info.param)) + "_B" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PardaTest, EmptyTrace) {
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = run_parda({}, options);
  EXPECT_EQ(result.hist.total(), 0u);
}

TEST(PardaTest, TraceShorterThanRankCount) {
  const std::vector<Addr> trace{1, 2, 1};
  PardaOptions options;
  options.num_procs = 8;
  const PardaResult result = run_parda(trace, options);
  EXPECT_TRUE(result.hist == olken_analysis(trace));
}

TEST(PardaTest, SingleAddressTrace) {
  const std::vector<Addr> trace(100, 7);
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = run_parda(trace, options);
  EXPECT_EQ(result.hist.infinities(), 1u);
  EXPECT_EQ(result.hist.at(0), 99u);
}

TEST(PardaTest, AllDistinctTrace) {
  std::vector<Addr> trace(512);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i;
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = run_parda(trace, options);
  EXPECT_EQ(result.hist.infinities(), 512u);
  EXPECT_EQ(result.hist.finite_total(), 0u);
}

TEST(PardaTest, WorksWithEveryTreeEngine) {
  const auto trace = mixed_trace(3000, 5);
  const Histogram expected = olken_analysis(trace);
  PardaOptions options;
  options.num_procs = 3;
  EXPECT_TRUE(run_parda<SplayTree>(trace, options).hist == expected);
  EXPECT_TRUE(run_parda<FenwickWindow>(trace, options).hist == expected);
  EXPECT_TRUE(run_parda<AvlTree>(trace, options).hist == expected);
}

TEST(PardaTest, SpecWorkloadsRoundTrip) {
  // End-to-end over three scaled SPEC profiles with awkward rank counts.
  for (std::string_view name : {"mcf", "libquantum", "povray"}) {
    auto w = make_spec_workload(name, /*scale=*/200000, /*seed=*/9);
    const auto trace = generate_trace(*w, 8000);
    const Histogram expected = olken_analysis(trace);
    PardaOptions options;
    options.num_procs = 5;
    EXPECT_TRUE(run_parda(trace, options).hist == expected)
        << std::string(name);
  }
}

TEST(PardaTest, BoundedWithBoundLargerThanFootprintEqualsExact) {
  const auto trace = mixed_trace(4000, 77);
  PardaOptions options;
  options.num_procs = 4;
  options.bound = 1 << 20;
  EXPECT_TRUE(run_parda(trace, options).hist == olken_analysis(trace));
}

// --- RankState unit behaviour ----------------------------------------------

TEST(PardaProfileTest, OfflineProfilesAreConsistent) {
  const auto trace = mixed_trace(6000, 99);
  PardaOptions options;
  options.num_procs = 4;
  const PardaResult result = run_parda(trace, options);
  ASSERT_EQ(result.profiles.size(), 4u);

  std::uint64_t chunk_total = 0;
  std::uint64_t hits_total = 0;
  for (const RankProfile& p : result.profiles) {
    chunk_total += p.chunk_refs;
    hits_total += p.hits_resolved;
    EXPECT_GT(p.peak_resident, 0u);
  }
  EXPECT_EQ(chunk_total, trace.size());
  EXPECT_EQ(hits_total, result.hist.finite_total());
  // Rank 0 forwards nothing; the rightmost rank receives nothing.
  EXPECT_EQ(result.profiles[0].records_forwarded, 0u);
  EXPECT_EQ(result.profiles[3].records_received, 0u);
  // Everything rank 1 forwards, rank 0 receives.
  EXPECT_EQ(result.profiles[0].records_received,
            result.profiles[1].records_forwarded);
}

TEST(PardaProfileTest, BoundedCapsPeakResidency) {
  const auto trace = mixed_trace(6000, 7);
  PardaOptions options;
  options.num_procs = 3;
  options.bound = 32;
  const PardaResult result = run_parda(trace, options);
  for (const RankProfile& p : result.profiles) {
    EXPECT_LE(p.peak_resident, 32u);
  }
}

TEST(RankStateTest, LocalInfinityPerDistinctElement) {
  // Property 4.2: one local-infinity entry per distinct element of the
  // chunk.
  RankState<> state;
  const std::vector<Addr> chunk{5, 6, 5, 7, 6, 6, 8};
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    state.process_own(chunk[i], i);
  }
  const auto inf = state.take_local_infinities();
  ASSERT_EQ(inf.size(), 4u);
  EXPECT_EQ(inf[0], (InfRecord{5, 0}));
  EXPECT_EQ(inf[1], (InfRecord{6, 1}));
  EXPECT_EQ(inf[2], (InfRecord{7, 3}));
  EXPECT_EQ(inf[3], (InfRecord{8, 6}));
}

TEST(RankStateTest, SpaceOptimizedDeletesResolvedEntries) {
  RankState<> state;  // space-optimized by default
  state.process_own(1, 0);
  state.process_own(2, 1);
  EXPECT_EQ(state.resident(), 2u);
  // Incoming infinity for address 1 resolves and removes the replica.
  state.process_incoming(std::vector<InfRecord>{{1, 10}});
  EXPECT_EQ(state.resident(), 1u);
  EXPECT_EQ(state.received_count(), 1u);
  EXPECT_EQ(state.hist().at(1), 1u);  // one distinct element (2) intervened
}

TEST(RankStateTest, UnoptimizedKeepsAndReplaysEntries) {
  RankState<> state(kUnbounded, /*space_optimized=*/false);
  state.process_own(1, 0);
  state.process_own(2, 1);
  state.take_local_infinities();
  state.process_incoming(std::vector<InfRecord>{{1, 10}, {3, 11}});
  // Hit re-inserted, miss inserted: 3 residents (1@10, 2@1, 3@11).
  EXPECT_EQ(state.resident(), 3u);
  EXPECT_EQ(state.hist().at(1), 1u);
  const auto forwarded = state.take_local_infinities();
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0], (InfRecord{3, 11}));
}

TEST(RankStateTest, CountOffsetsIncomingDistances) {
  // Algorithm 4's count: misses processed earlier offset later hits.
  RankState<> state;
  state.process_own(100, 0);
  state.take_local_infinities();
  // Two unseen addresses pass through, then a hit on 100: the two strangers
  // are distinct elements between the reuse pair.
  state.process_incoming(std::vector<InfRecord>{{200, 5}, {300, 6}});
  state.process_incoming(std::vector<InfRecord>{{100, 7}});
  EXPECT_EQ(state.hist().at(2), 1u);
}

/// Addresses of the rank's tree entries in key order.
template <OrderStatTree Tree>
std::vector<Addr> resident_addrs(const RankState<Tree>& state) {
  std::vector<Addr> out;
  state.tree().for_each([&](TreeEntry e) { out.push_back(e.addr); });
  return out;
}

template <typename Tree>
class RankStateTreeTest : public ::testing::Test {};

using RankTrees = ::testing::Types<SplayTree, FenwickWindow>;
TYPED_TEST_SUITE(RankStateTreeTest, RankTrees);

TYPED_TEST(RankStateTreeTest, AppendPlacesExportAfterOwnEntries) {
  // Algorithm 6 at rank 0: b's chunk follows a's, so b's exported state is
  // newer than a's own entries and lands after them.
  RankState<TypeParam> a;
  a.process_own(10, 0);
  a.process_own(20, 1);
  a.take_local_infinities();
  RankState<TypeParam> b;
  b.process_own(30, 2);
  b.take_local_infinities();
  const std::vector<InfRecord> exported = b.export_state();
  EXPECT_EQ(b.resident(), 0u);
  a.append_state(exported);
  EXPECT_EQ(a.resident(), 3u);
  EXPECT_EQ(resident_addrs(a), (std::vector<Addr>{10, 20, 30}));
  EXPECT_TRUE(a.tree().validate());
  // a now resolves reuses of b's addresses, and of its own older ones.
  a.process_incoming(std::vector<InfRecord>{{30, 50}});
  EXPECT_EQ(a.hist().at(0), 1u);
  a.process_incoming(std::vector<InfRecord>{{10, 51}});
  EXPECT_EQ(a.hist().at(2), 1u);  // 20 and 30 intervene
}

TYPED_TEST(RankStateTreeTest, BoundedAppendTrimsToTheBNewest) {
  // Rank 0 holds 1, 2, 3 and appends two exports, {4, 5} then {6}: six in
  // reference order 1..6, of which B = 4 survive. Each append cuts into
  // rank 0's own entries.
  RankState<TypeParam> state(/*bound=*/4, /*space_optimized=*/true);
  state.process_own(1, 0);
  state.process_own(2, 1);
  state.process_own(3, 2);
  state.take_local_infinities();
  state.append_state(std::vector<InfRecord>{{4, 0}, {5, 1}});
  EXPECT_EQ(resident_addrs(state), (std::vector<Addr>{2, 3, 4, 5}));
  state.append_state(std::vector<InfRecord>{{6, 0}});
  EXPECT_EQ(state.resident(), 4u);
  EXPECT_EQ(resident_addrs(state), (std::vector<Addr>{3, 4, 5, 6}));
  EXPECT_EQ(state.table().size(), 4u);
  EXPECT_FALSE(state.table().contains(1));
  EXPECT_FALSE(state.table().contains(2));
  EXPECT_TRUE(state.tree().validate());
  EXPECT_EQ(state.peak_resident(), 4u);
  // Address 3 (the oldest kept) hits at distance 3; address 2 (trimmed)
  // now misses.
  state.begin_merge_stage();
  state.process_incoming(std::vector<InfRecord>{{3, 50}});
  EXPECT_EQ(state.hist().at(3), 1u);  // 4, 5 and 6 intervene
  state.process_incoming(std::vector<InfRecord>{{2, 51}});
  EXPECT_EQ(state.pending_infinities(), 1u);
}

TYPED_TEST(RankStateTreeTest, BoundedChunkEmitsAtMostBRecords) {
  // Algorithm 7's budget: a bounded chunk with more than B distinct
  // addresses emits exactly B local infinities and tallies every later miss
  // as an infinity at once; an unbounded chunk emits every miss. The
  // evict-then-insert path runs either way.
  const std::vector<Addr> chunk{1, 2, 3, 1, 4, 5, 4};
  RankState<TypeParam> bounded(/*bound=*/3, /*space_optimized=*/true);
  RankState<TypeParam> unbounded;
  bounded.begin_merge_stage();
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    bounded.process_own(chunk[i], i);
    unbounded.process_own(chunk[i], i);
  }
  // 1, 2, 3 spend the budget; 1 hits at 2; 4 and 5 miss (evicting 2 and
  // 3) and count as infinities; 4 hits at 1 (5 intervenes).
  EXPECT_EQ(bounded.local_infinities(),
            (std::vector<InfRecord>{{1, 0}, {2, 1}, {3, 2}}));
  EXPECT_EQ(bounded.hist().infinities(), 2u);
  EXPECT_EQ(bounded.hist().at(2), 1u);
  EXPECT_EQ(bounded.hist().at(1), 1u);
  EXPECT_EQ(resident_addrs(bounded), (std::vector<Addr>{1, 5, 4}));
  EXPECT_TRUE(bounded.saturated());

  EXPECT_EQ(unbounded.local_infinities().size(), 5u);
  EXPECT_EQ(unbounded.hist().infinities(), 0u);
  EXPECT_FALSE(unbounded.saturated());

  // The budget is per phase: the next merge stage may emit B again.
  bounded.begin_merge_stage();
  EXPECT_FALSE(bounded.saturated());
  bounded.process_own(6, 7);
  EXPECT_EQ(bounded.pending_infinities(), 4u);
  EXPECT_EQ(bounded.hist().infinities(), 2u);
}

TYPED_TEST(RankStateTreeTest, DropStateKeepsTheHistogram) {
  RankState<TypeParam> state(/*bound=*/4, /*space_optimized=*/true);
  state.process_own(1, 0);
  state.process_own(1, 1);
  state.drop_state();
  EXPECT_EQ(state.resident(), 0u);
  EXPECT_EQ(state.table().size(), 0u);
  EXPECT_EQ(state.hist().at(0), 1u);
  state.append_state(std::vector<InfRecord>{{1, 0}});
  EXPECT_EQ(resident_addrs(state), (std::vector<Addr>{1}));
}

TEST(RankStateTest, RenumberKeepsTicksDenseAndMapped) {
  // 300 distinct addresses hit 20000 times: the key window keeps filling
  // with dead slots, so it is renumbered many times instead of growing to
  // the chunk length.
  ZipfWorkload w(300, 0.7, 3);
  const std::vector<Addr> chunk = generate_trace(w, 20000);
  RankState<> state;
  state.process_own_block(chunk, 0);
  EXPECT_LE(state.tree().key_capacity(), 1024u);
  EXPECT_TRUE(state.tree().validate());
  // Every AddrMap value is the live key of its address.
  std::vector<TreeEntry> entries;
  state.tree().for_each([&](TreeEntry e) { entries.push_back(e); });
  ASSERT_EQ(state.table().size(), entries.size());
  state.table().for_each([&](Addr addr, Timestamp key) {
    const auto it =
        std::find_if(entries.begin(), entries.end(),
                     [&](const TreeEntry& e) { return e.ts == key; });
    ASSERT_NE(it, entries.end()) << "addr " << addr;
    EXPECT_EQ(it->addr, addr);
  });
  state.flush_global_infinities();
  EXPECT_TRUE(state.hist() == olken_analysis(chunk));
}

TEST(RankStateTest, ProcessOwnBlockEqualsPerReferenceLoop) {
  // The parallel drivers feed every chunk through process_own_block; it
  // must leave exactly the state the per-reference process_own loop does.
  // The base is nonzero, as on every rank but the first.
  ZipfWorkload w(3000, 0.9, 17);
  const std::vector<Addr> chunk = generate_trace(w, 20000);
  constexpr Timestamp kBase = 123457;
  for (const std::uint64_t bound : {kUnbounded, std::uint64_t{64}}) {
    RankState<> block(bound);
    block.process_own_block(chunk, kBase);
    RankState<> loop(bound);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      loop.process_own(chunk[i], kBase + i);
    }
    EXPECT_TRUE(block.hist() == loop.hist()) << "B=" << bound;
    EXPECT_EQ(block.take_local_infinities(), loop.take_local_infinities())
        << "B=" << bound;
    EXPECT_EQ(block.peak_resident(), loop.peak_resident()) << "B=" << bound;
    EXPECT_EQ(block.table().probe_count(), loop.table().probe_count())
        << "B=" << bound;
  }
}

TEST(RankStateTest, ProcessIncomingSplitAnywhereEqualsWhole) {
  // process_incoming walks its list in internal batches (prefetching hash
  // slots ahead, tallying each batch at its end). Any split of a received
  // list into calls, down to one record per call, must leave the state the
  // whole list does: tallies with the Algorithm 4 offset and the bounded
  // clamp, the survivors in order, and the received count.
  ZipfWorkload left_refs(3000, 0.8, 5);
  ZipfWorkload right_refs(3000, 0.8, 6);
  const std::vector<Addr> own = generate_trace(left_refs, 9000);
  RankState<> right;
  right.process_own_block(generate_trace(right_refs, 9000), 9000);
  const std::vector<InfRecord> list = right.take_local_infinities();
  ASSERT_GE(list.size(), 1800u);
  ASSERT_LE(list.size(), 2300u);
  std::vector<std::size_t> every;  // one record per call
  for (std::size_t i = 1; i < list.size(); ++i) every.push_back(i);
  const std::vector<std::vector<std::size_t>> splits = {
      {1}, {255}, {256}, {257}, {1, 255, 256, 257}, every};

  struct Config {
    std::uint64_t bound;
    bool space_optimized;
  };
  for (const Config c : {Config{kUnbounded, true}, Config{64, true},
                         Config{kUnbounded, false}}) {
    SCOPED_TRACE("B=" + std::to_string(c.bound) +
                 " space_optimized=" + std::to_string(c.space_optimized));
    const auto run = [&](const std::vector<std::size_t>& cuts) {
      RankState<> state(c.bound, c.space_optimized);
      state.process_own_block(own, 0);
      state.take_local_infinities();
      state.begin_merge_stage();
      const std::span<const InfRecord> all(list);
      std::size_t from = 0;
      for (const std::size_t cut : cuts) {
        state.process_incoming(all.subspan(from, cut - from));
        from = cut;
      }
      state.process_incoming(all.subspan(from));
      return state;
    };
    const RankState<> whole = run({});
    // Not vacuous: records resolve, survive, and (bounded) clamp.
    EXPECT_GT(whole.hist().finite_total(), 0u);
    EXPECT_GT(whole.pending_infinities(), 0u);
    if (c.bound != kUnbounded) {
      EXPECT_GT(whole.hist().infinities(), 0u);
    }
    for (const std::vector<std::size_t>& cuts : splits) {
      const RankState<> split = run(cuts);
      EXPECT_TRUE(split.hist() == whole.hist()) << cuts.size() << " cuts";
      EXPECT_EQ(split.local_infinities(), whole.local_infinities())
          << cuts.size() << " cuts";
      EXPECT_EQ(split.received_count(), whole.received_count());
    }
  }
}

TEST(RankStateTest, FlushGlobalInfinitiesCountsPending) {
  RankState<> state;
  state.process_own(1, 0);
  state.process_own(2, 1);
  state.flush_global_infinities();
  EXPECT_EQ(state.hist().infinities(), 2u);
  EXPECT_EQ(state.pending_infinities(), 0u);
}

}  // namespace
}  // namespace parda
