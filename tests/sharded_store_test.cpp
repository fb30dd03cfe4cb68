// ShardedColumnarStore unit tests plus a randomized differential against
// std::unordered_map covering the full mutation surface — including the
// per-key Erase the incremental subsystem leans on — and the
// AnnotatedRelation facade paths that adopt or copy the sharded backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hierarq/data/annotated.h"
#include "hierarq/data/sharded.h"
#include "hierarq/data/tuple.h"
#include "hierarq/query/var_set.h"
#include "hierarq/util/random.h"

namespace hierarq {
namespace {

Tuple RandomKey(Rng& rng, size_t arity, int64_t domain) {
  Tuple key;
  for (size_t i = 0; i < arity; ++i) {
    key.push_back(rng.UniformInt(0, domain));
  }
  return key;
}

TEST(ShardedColumnarStoreTest, BasicInsertFindEraseAcrossShards) {
  ShardedColumnarStore<uint64_t> store;
  store.Reset(2);
  EXPECT_TRUE(store.empty());

  // Enough keys that every shard receives some (256 keys over 8 shards).
  std::vector<Tuple> keys;
  for (int64_t i = 0; i < 256; ++i) {
    keys.push_back(MakeTuple({i, i * 7}));
    store.Set(keys.back(), static_cast<uint64_t>(i) + 1);
  }
  EXPECT_EQ(store.size(), 256u);

  size_t occupied_shards = 0;
  for (size_t s = 0; s < ShardedColumnarStore<uint64_t>::kNumShards; ++s) {
    occupied_shards += store.shard(s).empty() ? 0 : 1;
  }
  EXPECT_EQ(occupied_shards, ShardedColumnarStore<uint64_t>::kNumShards)
      << "256 hashed keys should touch all 8 shards";

  for (int64_t i = 0; i < 256; ++i) {
    const uint64_t* value = store.Find(keys[static_cast<size_t>(i)]);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, static_cast<uint64_t>(i) + 1);
  }
  EXPECT_FALSE(store.Contains(MakeTuple({999, 999})));

  EXPECT_TRUE(store.Erase(keys[10]));
  EXPECT_FALSE(store.Erase(keys[10]));
  EXPECT_EQ(store.Find(keys[10]), nullptr);
  EXPECT_EQ(store.size(), 255u);

  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Find(keys[0]), nullptr);
}

TEST(ShardedColumnarStoreTest, KeysLiveInTheShardTheirHashTopBitsName) {
  Rng rng(0x5a5aULL);
  for (size_t arity = 1; arity <= 3; ++arity) {
    ShardedColumnarStore<int> store;
    store.Reset(arity);
    for (int i = 0; i < 200; ++i) {
      const Tuple key = RandomKey(rng, arity, 1000);
      store.Set(key, i);
      const size_t expected =
          ShardedColumnarStore<int>::ShardOfHash(TupleHash{}(key));
      EXPECT_NE(store.shard(expected).Find(key), nullptr)
          << "key must land in its hash-routed shard";
      for (size_t s = 0; s < ShardedColumnarStore<int>::kNumShards; ++s) {
        if (s != expected) {
          EXPECT_EQ(store.shard(s).Find(key), nullptr);
        }
      }
    }
  }
}

TEST(ShardedColumnarStoreTest,
     ForEachVisitsShardsInIndexOrderDeterministically) {
  ShardedColumnarStore<uint64_t> store;
  store.Reset(2);
  Rng rng(0xfeedULL);
  for (int i = 0; i < 300; ++i) {
    store.Set(RandomKey(rng, 2, 100), static_cast<uint64_t>(i));
  }
  std::vector<Tuple> first_pass;
  store.ForEach(
      [&](const Tuple& key, const uint64_t&) { first_pass.push_back(key); });
  EXPECT_EQ(first_pass.size(), store.size());
  // A second walk yields the identical sequence; and the sequence is
  // shard-ordered: each key's shard index must be non-decreasing.
  std::vector<Tuple> second_pass;
  store.ForEach(
      [&](const Tuple& key, const uint64_t&) { second_pass.push_back(key); });
  EXPECT_EQ(first_pass, second_pass);
  size_t previous_shard = 0;
  for (const Tuple& key : first_pass) {
    const size_t shard =
        ShardedColumnarStore<uint64_t>::ShardOfHash(TupleHash{}(key));
    EXPECT_GE(shard, previous_shard);
    previous_shard = shard;
  }
}

TEST(ShardedColumnarStoreTest, MergeCombinesExistingEntries) {
  ShardedColumnarStore<uint64_t> store;
  store.Reset(2);
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const Tuple key = MakeTuple({4, 2});
  store.Merge(key, 10, plus);
  store.Merge(key, 32, plus);
  const uint64_t* value = store.Find(key);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 42u);
}

TEST(ShardedColumnarStoreTest, ReserveThenFillDoesNotLoseEntries) {
  ShardedColumnarStore<uint64_t> store;
  store.Reset(2);
  store.Reserve(10000);
  Rng rng(0xcafeULL);
  std::unordered_map<Tuple, uint64_t, TupleHash> reference;
  for (int i = 0; i < 10000; ++i) {
    const Tuple key = RandomKey(rng, 2, 5000);
    reference[key] = static_cast<uint64_t>(i);
    store.Set(key, static_cast<uint64_t>(i));
  }
  ASSERT_EQ(store.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const uint64_t* found = store.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
}

// Randomized differential: a long interleaved stream of FindOrInsert /
// Set / Merge / Erase / Clear against std::unordered_map, checked by full
// content comparison at checkpoints. Erase gets double weight — the
// swap-remove plus index re-point and robin-hood backward-shift inside a
// routed shard is the fiddliest path.
TEST(ShardedColumnarStoreTest, RandomizedDifferentialAgainstUnorderedMap) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0xd1ffULL + seed);
    ShardedColumnarStore<uint64_t> store;
    std::unordered_map<Tuple, uint64_t, TupleHash> reference;
    const size_t arity = 1 + static_cast<size_t>(seed % 3);
    store.Reset(arity);
    const int64_t domain = 60;  // Small: plenty of hits and re-touches.

    for (int op = 0; op < 4000; ++op) {
      const Tuple key = RandomKey(rng, arity, domain);
      switch (rng.UniformInt(0, 5)) {
        case 0: {
          auto [slot, inserted] = store.FindOrInsert(key);
          auto [it, ref_inserted] = reference.try_emplace(key);
          EXPECT_EQ(inserted, ref_inserted);
          if (inserted) {
            *slot = static_cast<uint64_t>(op);
            it->second = static_cast<uint64_t>(op);
          } else {
            EXPECT_EQ(*slot, it->second);
          }
          break;
        }
        case 1:
          store.Set(key, static_cast<uint64_t>(op));
          reference[key] = static_cast<uint64_t>(op);
          break;
        case 2: {
          const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
          store.Merge(key, 3, plus);
          auto [it, inserted] = reference.try_emplace(key, 3);
          if (!inserted) {
            it->second += 3;
          }
          break;
        }
        case 3:
        case 4:
          EXPECT_EQ(store.Erase(key), reference.erase(key) > 0);
          break;
        case 5:
          if (op % 1000 == 999) {
            store.Clear();
            reference.clear();
          }
          break;
      }
      if (op % 500 == 499) {
        ASSERT_EQ(store.size(), reference.size()) << "seed=" << seed;
        size_t visited = 0;
        store.ForEach([&](const Tuple& key, const uint64_t& value) {
          auto it = reference.find(key);
          ASSERT_NE(it, reference.end());
          EXPECT_EQ(value, it->second);
          ++visited;
        });
        EXPECT_EQ(visited, reference.size());
      }
    }
  }
}

// ------------------------------------------- AnnotatedRelation adoption --

TEST(ShardedColumnarStoreTest,
     AnnotatedRelationRoundTripsThroughShardedBackend) {
  VarSet schema{VarId{0}, VarId{1}};
  AnnotatedRelation<uint64_t> sharded(schema, StorageKind::kShardedColumnar);
  EXPECT_EQ(sharded.storage(), StorageKind::kShardedColumnar);
  Rng rng(0xadd0ULL);
  for (int i = 0; i < 400; ++i) {
    sharded.Set(RandomKey(rng, 2, 80), static_cast<uint64_t>(i) + 1);
  }

  // Copy into a columnar relation; the contents must survive the hop.
  AnnotatedRelation<uint64_t> columnar(schema, StorageKind::kColumnar);
  columnar.AssignFrom(sharded, schema);
  EXPECT_EQ(columnar.storage(), StorageKind::kShardedColumnar)
      << "AssignFrom adopts the source backend";
  EXPECT_EQ(columnar.size(), sharded.size());
  sharded.ForEach([&](const Tuple& key, const uint64_t& value) {
    const uint64_t* found = columnar.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  });

  // Move-adopt leaves the source empty, keeps the contents.
  AnnotatedRelation<uint64_t> adopted;
  const size_t size_before = columnar.size();
  adopted.AdoptFrom(std::move(columnar), schema);
  EXPECT_EQ(adopted.size(), size_before);
  EXPECT_EQ(adopted.storage(), StorageKind::kShardedColumnar);
}

}  // namespace
}  // namespace hierarq
