#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash/addr_map.hpp"
#include "util/prng.hpp"

namespace parda {
namespace {

// Every test runs on both value widths: the uint64_t AddrMap of the
// sequential engines and the 16-byte-slot uint32_t tick map of a Parda
// rank on a FenwickWindow.
template <typename Value>
class AddrMapTest : public ::testing::Test {};

using ValueWidths = ::testing::Types<std::uint64_t, std::uint32_t>;
TYPED_TEST_SUITE(AddrMapTest, ValueWidths);

TYPED_TEST(AddrMapTest, EmptyMap) {
  BasicAddrMap<TypeParam> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_FALSE(map.contains(42));
  EXPECT_FALSE(map.erase(42));
}

TYPED_TEST(AddrMapTest, InsertFindErase) {
  BasicAddrMap<TypeParam> map;
  EXPECT_TRUE(map.insert_or_assign(10, 100));
  EXPECT_TRUE(map.insert_or_assign(20, 200));
  ASSERT_NE(map.find(10), nullptr);
  EXPECT_EQ(*map.find(10), 100u);
  ASSERT_NE(map.find(20), nullptr);
  EXPECT_EQ(*map.find(20), 200u);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_FALSE(map.insert_or_assign(10, 111));  // overwrite, not new
  EXPECT_EQ(*map.find(10), 111u);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.erase(10));
  EXPECT_EQ(map.find(10), nullptr);
  EXPECT_FALSE(map.erase(10));
  EXPECT_EQ(map.size(), 1u);
}

TYPED_TEST(AddrMapTest, FindReturnsMutablePointer) {
  BasicAddrMap<TypeParam> map;
  map.insert_or_assign(5, 50);
  *map.find(5) = 99;
  EXPECT_EQ(*map.find(5), 99u);
}

TYPED_TEST(AddrMapTest, GrowthPreservesEntries) {
  BasicAddrMap<TypeParam> map;
  for (Addr a = 0; a < 10000; ++a) map.insert_or_assign(a, a * 3);
  EXPECT_EQ(map.size(), 10000u);
  for (Addr a = 0; a < 10000; ++a) {
    ASSERT_NE(map.find(a), nullptr) << a;
    EXPECT_EQ(*map.find(a), a * 3);
  }
}

TYPED_TEST(AddrMapTest, ClearEmptiesButKeepsCapacity) {
  BasicAddrMap<TypeParam> map;
  for (Addr a = 0; a < 100; ++a) map.insert_or_assign(a, a);
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.find(5), nullptr);
  map.insert_or_assign(5, 7);
  EXPECT_EQ(*map.find(5), 7u);
}

TYPED_TEST(AddrMapTest, ReserveAvoidsRehash) {
  BasicAddrMap<TypeParam> map;
  map.reserve(5000);
  const std::size_t cap = map.capacity();
  for (Addr a = 0; a < 5000; ++a) map.insert_or_assign(a, a);
  EXPECT_EQ(map.capacity(), cap);
}

TYPED_TEST(AddrMapTest, EntriesMatchesContents) {
  BasicAddrMap<TypeParam> map;
  for (Addr a = 0; a < 57; ++a) map.insert_or_assign(a * 7, a);
  std::vector<std::pair<Addr, Timestamp>> entries;
  map.for_each([&](Addr a, Timestamp t) { entries.emplace_back(a, t); });
  ASSERT_EQ(entries.size(), 57u);
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].first, i * 7);
    EXPECT_EQ(entries[i].second, i);
  }
}

TYPED_TEST(AddrMapTest, ForEachVisitsEverythingOnce) {
  BasicAddrMap<TypeParam> map;
  for (Addr a = 100; a < 200; ++a) map.insert_or_assign(a, a + 1);
  std::unordered_map<Addr, Timestamp> seen;
  map.for_each([&](Addr a, Timestamp t) {
    EXPECT_TRUE(seen.emplace(a, t).second) << "duplicate visit " << a;
  });
  EXPECT_EQ(seen.size(), 100u);
  for (const auto& [a, t] : seen) EXPECT_EQ(t, a + 1);
}

TYPED_TEST(AddrMapTest, MaxProbeLengthStaysSmall) {
  BasicAddrMap<TypeParam> map;
  for (Addr a = 0; a < 100000; ++a) map.insert_or_assign(a * 12345, a);
  // Robin-hood at <= 75% load keeps probe chains very short.
  EXPECT_LE(map.max_probe_length(), 32u);
}

TYPED_TEST(AddrMapTest, AdversarialProbeChainSurvivesSaturation) {
  // Brute-force ~300 keys whose mix64 hashes land in one bucket of a
  // 1024-slot table. With the old 8-bit probe-distance encoding the chain
  // reached the 0xFF empty sentinel and silently corrupted the table; now
  // the dib field is wider and a chain probing past kGrowProbeLimit
  // forces an early rehash that splits the bucket.
  constexpr std::size_t kMask = 1023;
  constexpr std::size_t kBucket = 7;
  std::vector<Addr> keys;
  for (Addr k = 0; keys.size() < 300; ++k) {
    if ((static_cast<std::size_t>(mix64(k)) & kMask) == kBucket) {
      keys.push_back(k);
    }
  }
  BasicAddrMap<TypeParam> map;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(map.insert_or_assign(keys[i], i));
  }
  EXPECT_EQ(map.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr) << "key index " << i;
    EXPECT_EQ(*map.find(keys[i]), i);
  }
  // The forced growth must have split the chain well below the limit.
  EXPECT_LT(map.max_probe_length(), 255u);

  // Backward-shift deletion on the long chain: erase half, keep the rest.
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(map.erase(keys[i]));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(map.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(map.find(keys[i]), nullptr);
      EXPECT_EQ(*map.find(keys[i]), i);
    }
  }
}

TYPED_TEST(AddrMapTest, RandomOpsMatchStdUnorderedMap) {
  BasicAddrMap<TypeParam> map;
  using Value = TypeParam;
  std::unordered_map<Addr, Value> ref;
  Xoshiro256 rng(12345);
  for (int step = 0; step < 200000; ++step) {
    const Addr key = rng.below(500);  // small key space => heavy churn
    const int op = static_cast<int>(rng.below(3));
    if (op == 0) {
      const auto value = static_cast<Value>(rng());
      EXPECT_EQ(map.insert_or_assign(key, value),
                ref.insert_or_assign(key, value).second);
    } else if (op == 1) {
      EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
    } else {
      const Value* found = map.find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
    EXPECT_EQ(map.size(), ref.size());
  }
}

TYPED_TEST(AddrMapTest, HandlesHugeKeys) {
  BasicAddrMap<TypeParam> map;
  const Addr keys[] = {0, ~0ULL, 1ULL << 63, (1ULL << 40) + 3};
  for (std::size_t i = 0; i < 4; ++i) map.insert_or_assign(keys[i], i);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr);
    EXPECT_EQ(*map.find(keys[i]), i);
  }
}

TYPED_TEST(AddrMapTest, ValuesKeepTheirFullWidth) {
  using Value = TypeParam;
  BasicAddrMap<TypeParam> map;
  constexpr Value kTop = std::numeric_limits<Value>::max();
  map.insert_or_assign(1, kTop);
  map.insert_or_assign(2, kTop - 1);
  for (Addr a = 3; a < 1000; ++a) map.insert_or_assign(a, 0);  // rehashes
  EXPECT_EQ(*map.find(1), kTop);
  EXPECT_EQ(*map.find(2), kTop - 1);
}

}  // namespace
}  // namespace parda
