// Typed tests run every order-statistic engine against the same contract,
// plus randomized cross-checks against the sorted-vector oracle. Tests
// whose keys only ascend cover all four engines; FenwickWindow requires
// ascending inserts, so the arbitrary-order tests cover the three BSTs and
// the window has its own tests below.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tree/avl_tree.hpp"
#include "tree/fenwick.hpp"
#include "tree/order_stat_tree.hpp"
#include "tree/splay_tree.hpp"
#include "tree/vector_tree.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

template <typename T>
class OrderStatTreeTest : public ::testing::Test {
 protected:
  T tree_;
};

using Engines =
    ::testing::Types<SplayTree, AvlTree, VectorTree, FenwickWindow>;
TYPED_TEST_SUITE(OrderStatTreeTest, Engines);

template <typename T>
class AnyKeyOrderTreeTest : public ::testing::Test {
 protected:
  T tree_;
};

using BstEngines = ::testing::Types<SplayTree, AvlTree, VectorTree>;
TYPED_TEST_SUITE(AnyKeyOrderTreeTest, BstEngines);

TYPED_TEST(OrderStatTreeTest, EmptyTree) {
  EXPECT_EQ(this->tree_.size(), 0u);
  EXPECT_TRUE(this->tree_.empty());
  EXPECT_EQ(this->tree_.count_greater(0), 0u);
  EXPECT_EQ(this->tree_.count_greater(100), 0u);
  EXPECT_FALSE(this->tree_.erase(5));
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, SingleElement) {
  this->tree_.insert(10, 0xAA);
  EXPECT_EQ(this->tree_.size(), 1u);
  EXPECT_EQ(this->tree_.count_greater(9), 1u);
  EXPECT_EQ(this->tree_.count_greater(10), 0u);
  EXPECT_EQ(this->tree_.count_greater(11), 0u);
  EXPECT_EQ(this->tree_.oldest(), (TreeEntry{10, 0xAA}));
  EXPECT_TRUE(this->tree_.validate());
  EXPECT_TRUE(this->tree_.erase(10));
  EXPECT_TRUE(this->tree_.empty());
}

TYPED_TEST(OrderStatTreeTest, CountGreaterOnAbsentKeys) {
  for (Timestamp ts : {10, 20, 30, 40, 50}) this->tree_.insert(ts, ts);
  EXPECT_EQ(this->tree_.count_greater(0), 5u);
  EXPECT_EQ(this->tree_.count_greater(10), 4u);
  EXPECT_EQ(this->tree_.count_greater(15), 4u);  // between keys
  EXPECT_EQ(this->tree_.count_greater(25), 3u);
  EXPECT_EQ(this->tree_.count_greater(45), 1u);
  EXPECT_EQ(this->tree_.count_greater(50), 0u);
  EXPECT_EQ(this->tree_.count_greater(99), 0u);
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, AscendingInsertion) {
  for (Timestamp ts = 0; ts < 1000; ++ts) this->tree_.insert(ts, ts * 2);
  EXPECT_EQ(this->tree_.size(), 1000u);
  EXPECT_TRUE(this->tree_.validate());
  for (Timestamp ts = 0; ts < 1000; ts += 37) {
    EXPECT_EQ(this->tree_.count_greater(ts), 999u - ts);
  }
}

TYPED_TEST(AnyKeyOrderTreeTest, DescendingInsertion) {
  for (Timestamp ts = 1000; ts-- > 0;) this->tree_.insert(ts, ts);
  EXPECT_EQ(this->tree_.size(), 1000u);
  EXPECT_TRUE(this->tree_.validate());
  EXPECT_EQ(this->tree_.count_greater(499), 500u);
}

TYPED_TEST(AnyKeyOrderTreeTest, OldestAndPopOldest) {
  Xoshiro256 rng(99);
  std::vector<Timestamp> keys;
  for (int i = 0; i < 300; ++i) {
    const Timestamp ts = rng() >> 16;
    if (std::find(keys.begin(), keys.end(), ts) != keys.end()) continue;
    keys.push_back(ts);
    this->tree_.insert(ts, ts + 1);
  }
  std::sort(keys.begin(), keys.end());
  for (Timestamp expected : keys) {
    EXPECT_EQ(this->tree_.oldest().ts, expected);
    const TreeEntry popped = this->tree_.pop_oldest();
    EXPECT_EQ(popped.ts, expected);
    EXPECT_EQ(popped.addr, expected + 1);
  }
  EXPECT_TRUE(this->tree_.empty());
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(AnyKeyOrderTreeTest, ForEachIsInOrder) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    this->tree_.insert(mix64(static_cast<std::uint64_t>(i)) >> 8,
                       static_cast<Addr>(i));
  }
  std::vector<Timestamp> visited;
  this->tree_.for_each([&](TreeEntry e) { visited.push_back(e.ts); });
  EXPECT_EQ(visited.size(), 500u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TYPED_TEST(OrderStatTreeTest, ClearResets) {
  for (Timestamp ts = 0; ts < 50; ++ts) this->tree_.insert(ts, ts);
  this->tree_.clear();
  EXPECT_TRUE(this->tree_.empty());
  EXPECT_EQ(this->tree_.count_greater(0), 0u);
  this->tree_.insert(3, 3);
  EXPECT_EQ(this->tree_.size(), 1u);
  EXPECT_TRUE(this->tree_.validate());
}

TYPED_TEST(OrderStatTreeTest, EraseMiddleKeepsWeights) {
  for (Timestamp ts = 0; ts < 100; ++ts) this->tree_.insert(ts, ts);
  for (Timestamp ts = 10; ts < 60; ts += 2) {
    EXPECT_TRUE(this->tree_.erase(ts));
  }
  EXPECT_TRUE(this->tree_.validate());
  // 94 keys exceeded 5 originally; 25 of them (10, 12, ..., 58) were erased.
  EXPECT_EQ(this->tree_.count_greater(5), 69u);
  EXPECT_EQ(this->tree_.size(), 75u);
}

TYPED_TEST(AnyKeyOrderTreeTest, RandomizedAgainstOracle) {
  TypeParam tree;
  VectorTree oracle;
  Xoshiro256 rng(31337);
  std::vector<Timestamp> live;
  for (int step = 0; step < 30000; ++step) {
    const int op = static_cast<int>(rng.below(10));
    if (op < 5 || live.empty()) {
      // Insert a fresh timestamp.
      Timestamp ts = rng() >> 20;
      while (std::find(live.begin(), live.end(), ts) != live.end()) ++ts;
      tree.insert(ts, ts ^ 0xF00D);
      oracle.insert(ts, ts ^ 0xF00D);
      live.push_back(ts);
    } else if (op < 8) {
      const std::size_t pick = rng.below(live.size());
      const Timestamp ts = live[pick];
      EXPECT_TRUE(tree.erase(ts));
      EXPECT_TRUE(oracle.erase(ts));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const Timestamp probe = rng() >> 20;
      EXPECT_EQ(tree.count_greater(probe), oracle.count_greater(probe));
    }
    EXPECT_EQ(tree.size(), oracle.size());
  }
  EXPECT_TRUE(tree.validate());
  // Final full sweep comparison.
  std::vector<TreeEntry> a;
  std::vector<TreeEntry> b;
  tree.for_each([&](TreeEntry e) { a.push_back(e); });
  oracle.for_each([&](TreeEntry e) { b.push_back(e); });
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TYPED_TEST(OrderStatTreeTest, PopOldestInterleavedWithInserts) {
  // Simulates bounded-analysis LRU churn: insert ascending, evict oldest.
  for (Timestamp ts = 0; ts < 2000; ++ts) {
    this->tree_.insert(ts, ts);
    if (this->tree_.size() > 64) {
      const TreeEntry victim = this->tree_.pop_oldest();
      EXPECT_EQ(victim.ts, ts - 64);
    }
  }
  EXPECT_EQ(this->tree_.size(), 64u);
  EXPECT_TRUE(this->tree_.validate());
}

TEST(FenwickWindowTest, RandomizedAgainstOracle) {
  // Ascending keys with random gaps, erases anywhere (half of them LRU
  // pops), and count_greater probes on present, absent and out-of-window
  // keys. Gaps of up to 130 skip whole 64-slot words of live bits.
  for (const Timestamp max_gap : {3, 130}) {
    SCOPED_TRACE(max_gap);
    FenwickWindow tree;
    VectorTree oracle;
    Xoshiro256 rng(4242);
    std::vector<Timestamp> live;
    Timestamp next = 0;
    for (int step = 0; step < 30000; ++step) {
      const int op = static_cast<int>(rng.below(10));
      if (op < 5 || live.empty()) {
        next += rng.below(max_gap + 1);
        tree.insert(next, next ^ 0xF00D);
        oracle.insert(next, next ^ 0xF00D);
        live.push_back(next++);
      } else if (op < 7) {
        const std::size_t pick = rng.below(live.size());
        EXPECT_TRUE(tree.erase(live[pick]));
        EXPECT_TRUE(oracle.erase(live[pick]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (op < 8) {
        EXPECT_EQ(tree.oldest(), oracle.oldest());
        EXPECT_EQ(tree.pop_oldest(), oracle.pop_oldest());
        live.erase(std::min_element(live.begin(), live.end()));
      } else {
        const Timestamp probe = rng.below(next + 8);
        EXPECT_EQ(tree.count_greater(probe), oracle.count_greater(probe));
        EXPECT_EQ(tree.erase(probe), oracle.erase(probe));
        std::erase(live, probe);
      }
      ASSERT_EQ(tree.size(), oracle.size());
      if (step % 1000 == 0) {
        ASSERT_TRUE(tree.validate()) << step;
      }
    }
    std::vector<TreeEntry> a;
    std::vector<TreeEntry> b;
    tree.for_each([&](TreeEntry e) { a.push_back(e); });
    oracle.for_each([&](TreeEntry e) { b.push_back(e); });
    EXPECT_EQ(a, b);
  }
}

TEST(FenwickWindowTest, WordBoundaries) {
  // Live bits are packed 64 to a word: keys on both sides of word edges,
  // gaps that skip whole words, erases that empty a word under the oldest
  // cursor, and a renumber whose survivors end in a partial last word.
  // Every step is checked against the sorted-vector oracle.
  FenwickWindow tree;
  VectorTree oracle;
  const auto check = [&](const char* what) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(tree.validate());
    ASSERT_EQ(tree.size(), oracle.size());
    if (!oracle.empty()) {
      EXPECT_EQ(tree.oldest(), oracle.oldest());
    }
    for (Timestamp probe = 0; probe < 900; ++probe) {
      ASSERT_EQ(tree.count_greater(probe), oracle.count_greater(probe))
          << probe;
    }
  };
  const auto insert = [&](Timestamp key) {
    tree.insert(key, key + 1000);
    oracle.insert(key, key + 1000);
  };
  for (const Timestamp key : {0, 63, 64, 127, 128, 192, 383, 384, 700}) {
    insert(key);
    check("insert");
  }
  for (const Timestamp key : {63, 0, 128, 127}) {
    EXPECT_TRUE(tree.erase(key));
    EXPECT_TRUE(oracle.erase(key));
    check("erase");
  }
  EXPECT_EQ(tree.oldest(), (TreeEntry{64, 1064}));
  EXPECT_EQ(tree.pop_oldest(), oracle.pop_oldest());  // word 1 now empty
  check("pop across an empty word");
  EXPECT_EQ(tree.oldest(), (TreeEntry{192, 1192}));
  for (Timestamp key = 701; key <= 800; ++key) insert(key);
  check("run");

  // 4 sparse survivors and the run of 100: 104 keys, one whole word and a
  // partial one.
  std::vector<TreeEntry> expected;
  oracle.for_each([&](TreeEntry e) { expected.push_back(e); });
  std::vector<TreeEntry> renamed;
  const Timestamp next = tree.renumber(
      [&](Timestamp key, Addr addr) { renamed.push_back({key, addr}); });
  ASSERT_EQ(next, 104u);
  ASSERT_EQ(renamed.size(), expected.size());
  oracle.clear();
  for (std::size_t i = 0; i < renamed.size(); ++i) {
    EXPECT_EQ(renamed[i], (TreeEntry{i, expected[i].addr}));
    oracle.insert(renamed[i].ts, renamed[i].addr);
  }
  EXPECT_EQ(tree.key_capacity(), 256u);
  check("renumber");
  for (const Timestamp key : {63, 64, 103}) {
    EXPECT_TRUE(tree.erase(key));
    EXPECT_TRUE(oracle.erase(key));
    check("erase after renumber");
  }
  EXPECT_FALSE(tree.erase(104));  // past the frontier
  insert(next);                   // in the partial word
  insert(191);                    // skips to the last slot of word 2
  check("insert after renumber");
  insert(256);                    // grows the window
  check("grow after renumber");
  EXPECT_EQ(tree.key_capacity(), 512u);
}

TEST(FenwickWindowTest, GapsAndGrowth) {
  // Sparse keys grow the window through several doublings; the counts
  // built before each growth stay valid.
  FenwickWindow tree;
  for (Timestamp k = 5; k < 5000; k += 7) tree.insert(k, k);
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.key_capacity(), 8192u);
  EXPECT_EQ(tree.size(), 714u);
  EXPECT_EQ(tree.count_greater(0), 714u);
  EXPECT_EQ(tree.count_greater(5), 713u);
  EXPECT_EQ(tree.count_greater(4998), 0u);
  EXPECT_EQ(tree.oldest(), (TreeEntry{5, 5}));
  EXPECT_FALSE(tree.erase(6));  // a skipped key is a dead slot
}

TEST(FenwickWindowTest, RenumberIsDenseAndOrdered) {
  FenwickWindow tree;
  for (Timestamp k = 0; k < 1000; ++k) tree.insert(k, 10 * k);
  for (Timestamp k = 0; k < 1000; ++k) {
    if (k % 4 != 3) tree.erase(k);
  }
  std::vector<TreeEntry> renamed;
  const Timestamp next = tree.renumber(
      [&](Timestamp key, Addr addr) { renamed.push_back({key, addr}); });
  EXPECT_EQ(next, 250u);
  ASSERT_EQ(renamed.size(), 250u);
  for (std::size_t i = 0; i < renamed.size(); ++i) {
    EXPECT_EQ(renamed[i], (TreeEntry{i, 10 * (4 * i + 3)}));
  }
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.key_capacity(), 512u);  // shrunk to twice the survivors
  EXPECT_EQ(tree.count_greater(99), 150u);
  EXPECT_EQ(tree.oldest(), (TreeEntry{0, 30}));
  // Keys continue from the returned frontier.
  tree.insert(next, 1);
  EXPECT_EQ(tree.count_greater(0), 250u);
  EXPECT_TRUE(tree.validate());
}

TEST(FenwickWindowTest, RenumberOfAnEmptyWindow) {
  FenwickWindow tree;
  for (Timestamp k = 0; k < 100; ++k) tree.insert(k, k);
  while (!tree.empty()) tree.pop_oldest();
  EXPECT_EQ(tree.renumber([](Timestamp, Addr) { FAIL(); }), 0u);
  EXPECT_TRUE(tree.validate());
  tree.insert(0, 9);
  EXPECT_EQ(tree.oldest(), (TreeEntry{0, 9}));
}

TEST(FenwickWindowDeathTest, RejectsAKeyBelowTheFrontier) {
  FenwickWindow tree;
  tree.insert(10, 1);
  tree.erase(10);
  EXPECT_DEATH(tree.insert(10, 2), "key >= end_");
}

TEST(AvlTreeTest, HeightStaysLogarithmic) {
  AvlTree tree;
  for (Timestamp ts = 0; ts < (1 << 15); ++ts) tree.insert(ts, ts);
  // AVL height <= 1.44 log2(n); for n = 32768, that is ~22.
  EXPECT_LE(tree.height(), 23);
}

TEST(SplayTreeTest, WorksAfterWorstCasePattern) {
  // Ascending inserts make a splay tree a left path; make sure deep
  // operations still work (for_each and validate must not recurse).
  SplayTree tree;
  for (Timestamp ts = 0; ts < 200000; ++ts) tree.insert(ts, ts);
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.count_greater(0), 199999u);
  EXPECT_EQ(tree.size(), 200000u);
}

}  // namespace
}  // namespace parda
