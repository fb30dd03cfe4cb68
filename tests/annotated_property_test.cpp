// Randomized property tests for the relation laws every storage backend
// must satisfy (the contract behind AnnotatedRelation's runtime dispatch):
//
//   * AssignFrom under a permuted/renamed schema is an isomorphism — the
//     copy holds exactly the source's (key, annotation) pairs, re-labelled;
//   * Merge is ⊕-associative and ⊕-commutative per monoid: any insertion
//     order and any grouping of a multiset of (key, value) updates lands
//     on the same relation;
//   * Reset + reuse never leaks prior entries — a scratch relation cycled
//     through schemas and backends behaves like a fresh one (the class of
//     bug the PR 2 scratch-resize fix addressed).
//
// All properties quantify over both backends and over random data
// from seeded Rngs, so failures reproduce from the seed printed by gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/storage.h"
#include "hierarq/util/random.h"

namespace hierarq {
namespace {

// A random key over `arity` positions with values in [0, domain).
Tuple RandomKey(Rng& rng, size_t arity, int64_t domain) {
  Tuple key;
  key.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    key.push_back(rng.UniformInt(0, domain - 1));
  }
  return key;
}

// Reference content of a relation, independent of backend layout.
template <typename K>
std::map<std::vector<Value>, K> Snapshot(const AnnotatedRelation<K>& rel) {
  std::map<std::vector<Value>, K> out;
  rel.ForEach([&](const Tuple& key, const K& value) {
    out.emplace(std::vector<Value>(key.begin(), key.end()), value);
  });
  return out;
}

VarSet SchemaOfArity(size_t arity, VarId first) {
  VarSet schema;
  for (size_t i = 0; i < arity; ++i) {
    schema.Insert(first + static_cast<VarId>(i));
  }
  return schema;
}

TEST(AnnotatedPropertyTest, AssignFromIsSchemaRelabelledIsomorphism) {
  for (StorageKind source_kind : kAllStorageKinds) {
    for (StorageKind target_kind : kAllStorageKinds) {
      Rng rng(0x5eedULL + static_cast<uint64_t>(source_kind) * 16 +
              static_cast<uint64_t>(target_kind));
      for (int round = 0; round < 20; ++round) {
        const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
        AnnotatedRelation<uint64_t> source(SchemaOfArity(arity, 0),
                                           source_kind);
        const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
        for (size_t i = 0; i < n; ++i) {
          source.Merge(RandomKey(rng, arity, 16), rng.Next() % 1000,
                       [](uint64_t a, uint64_t b) { return a + b; });
        }

        // Target starts in its own backend, pre-polluted with entries that
        // the assignment must fully replace.
        AnnotatedRelation<uint64_t> target(SchemaOfArity(arity, 50),
                                           target_kind);
        target.Set(RandomKey(rng, arity, 16), 77);
        const VarSet renamed = SchemaOfArity(arity, 100);
        target.AssignFrom(source, renamed);

        // The copy adopts the source's backend and the new labels, and is
        // entry-for-entry identical to the source.
        EXPECT_EQ(target.storage(), source.storage());
        EXPECT_TRUE(target.schema() == renamed);
        EXPECT_EQ(target.size(), source.size());
        EXPECT_EQ(Snapshot(target), Snapshot(source));
        source.ForEach([&](const Tuple& key, const uint64_t& value) {
          const uint64_t* found = target.Find(key);
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, value);
        });

        // The copy is independent: mutating it leaves the source intact.
        const auto before = Snapshot(source);
        target.Merge(RandomKey(rng, arity, 16), 5,
                     [](uint64_t a, uint64_t b) { return a + b; });
        EXPECT_EQ(Snapshot(source), before);
      }
    }
  }
}

// Applies `updates` to a fresh relation in the given order, with a random
// associativity flavor: each update may first pre-combine with a
// neighbour before merging (exercising grouping, not just order).
template <typename Combine>
AnnotatedRelation<uint64_t> Apply(
    const std::vector<std::pair<Tuple, uint64_t>>& updates, VarSet schema,
    StorageKind kind, Combine combine) {
  AnnotatedRelation<uint64_t> rel(std::move(schema), kind);
  for (const auto& [key, value] : updates) {
    rel.Merge(key, value, combine);
  }
  return rel;
}

TEST(AnnotatedPropertyTest, MergeIsOrderAndBackendIndependentPerMonoid) {
  // ⊕ candidates: counting + (CountMonoid's Plus) and min with ∞ identity
  // (ResilienceMonoid's Plus). Both are associative and commutative, so
  // any permutation of the update sequence must produce the same relation
  // on every backend.
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const auto min_combine = [](uint64_t a, uint64_t b) {
    return ResilienceMonoid{}.Plus(a, b);
  };

  Rng rng(0xfeedULL);
  for (int round = 0; round < 30; ++round) {
    const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    const VarSet schema = SchemaOfArity(arity, 0);
    std::vector<std::pair<Tuple, uint64_t>> updates;
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 60));
    for (size_t i = 0; i < n; ++i) {
      // Tight domain so duplicate keys (the merge path) are common.
      updates.emplace_back(RandomKey(rng, arity, 4),
                           1 + rng.Next() % 100);
    }
    std::vector<std::pair<Tuple, uint64_t>> shuffled = updates;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    const auto reference_plus =
        Snapshot(Apply(updates, schema, StorageKind::kBaseline, plus));
    const auto reference_min =
        Snapshot(Apply(updates, schema, StorageKind::kBaseline, min_combine));
    for (StorageKind kind : kAllStorageKinds) {
      EXPECT_EQ(Snapshot(Apply(updates, schema, kind, plus)),
                reference_plus);
      EXPECT_EQ(Snapshot(Apply(shuffled, schema, kind, plus)),
                reference_plus);
      EXPECT_EQ(Snapshot(Apply(updates, schema, kind, min_combine)),
                reference_min);
      EXPECT_EQ(Snapshot(Apply(shuffled, schema, kind, min_combine)),
                reference_min);
    }
  }
}

TEST(AnnotatedPropertyTest, ResetAndReuseNeverLeaksPriorEntries) {
  for (StorageKind kind : kAllStorageKinds) {
    Rng rng(0xabcdULL + static_cast<uint64_t>(kind));
    AnnotatedRelation<uint64_t> rel(SchemaOfArity(2, 0), kind);
    for (int round = 0; round < 40; ++round) {
      // Fill under a random schema/arity...
      const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
      const VarSet schema = SchemaOfArity(arity, rng.Next() % 8);
      rel.Reset(schema);
      EXPECT_TRUE(rel.empty()) << "Reset left entries behind";
      std::vector<std::pair<Tuple, uint64_t>> inserted;
      const size_t n = static_cast<size_t>(rng.UniformInt(0, 30));
      for (size_t i = 0; i < n; ++i) {
        Tuple key = RandomKey(rng, arity, 8);
        const uint64_t value = rng.Next() % 1000;
        rel.Set(key, value);
        inserted.emplace_back(std::move(key), value);
      }
      // ... and verify the content is exactly what this round inserted:
      // last-write-wins per key, nothing from earlier rounds.
      std::map<std::vector<Value>, uint64_t> expected;
      for (const auto& [key, value] : inserted) {
        expected[std::vector<Value>(key.begin(), key.end())] = value;
      }
      EXPECT_EQ(Snapshot(rel), expected);
      EXPECT_EQ(rel.size(), expected.size());
    }
  }
}

TEST(AnnotatedPropertyTest, ResetAcrossBackendSwitchesStartsClean) {
  Rng rng(0x90edULL);
  AnnotatedRelation<uint64_t> rel(SchemaOfArity(2, 0));
  for (int round = 0; round < 60; ++round) {
    const StorageKind kind = kAllStorageKinds[static_cast<size_t>(
        rng.UniformInt(0, std::size(kAllStorageKinds) - 1))];
    const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    rel.Reset(SchemaOfArity(arity, 0), kind);
    EXPECT_EQ(rel.storage(), kind);
    EXPECT_TRUE(rel.empty());
    const Tuple probe = RandomKey(rng, arity, 4);
    EXPECT_EQ(rel.Find(probe), nullptr);
    rel.Set(probe, static_cast<uint64_t>(round));
    EXPECT_EQ(rel.size(), 1u);
    ASSERT_NE(rel.Find(probe), nullptr);
    EXPECT_EQ(*rel.Find(probe), static_cast<uint64_t>(round));
  }
}

}  // namespace
}  // namespace hierarq
