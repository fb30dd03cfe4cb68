#ifndef HIERARQ_DATA_SHARDED_H_
#define HIERARQ_DATA_SHARDED_H_

/// \file sharded.h
/// \brief `ShardedColumnarStore` — a hash-sharded relation backend for
/// intra-query parallelism.
///
/// Rule 1's ⊕-aggregation and Rule 2's union-join partition perfectly by
/// key hash: two keys can only collide in the result if they are equal,
/// and equal keys hash equally. `ShardedColumnarStore` makes that
/// partition physical: `kNumShards` (a power of two) independent
/// `ColumnarStore`s, with every key routed by the *top* bits of its
/// already-computed 64-bit hash — the bottom bits keep addressing slots
/// inside the shard's row index, so routing and in-shard probing never
/// share bits.
///
/// The payoff (core/parallel.h): a parallel Algorithm 1 step gives each
/// worker exclusive ownership of one output shard. Workers accumulate
/// lock-free — no two workers ever touch the same shard — and because the
/// shard of a key depends only on its hash, the result is *deterministic
/// for any thread count*: shard s always receives exactly the same keys
/// merged in exactly the same order, whether one worker processes all
/// shards or eight workers process one each. Each shard keeps its rows
/// column-major, so the scatter phases run the SIMD batch-hash and
/// gathered-lane compare kernels (util/simd.h) serial columnar steps use.
/// Serial callers see an ordinary store: `ForEach` walks shards in index
/// order, and every single-key operation routes to its shard
/// transparently, so the backend is runtime-selectable
/// (`StorageKind::kShardedColumnar`) and participates in the same
/// cross-backend differential suite.
///
/// Pointer validity matches `ColumnarStore`: pointers returned by
/// `Find`/`FindOrInsert` are invalidated by the next mutating call on the
/// *same shard* (mutations elsewhere never move another shard's entries —
/// that isolation is what the parallel runner builds on).

#include <cstddef>
#include <cstdint>
#include <utility>

#include "hierarq/data/columnar.h"
#include "hierarq/data/tuple.h"
#include "hierarq/util/logging.h"

namespace hierarq {

/// Columnar shards are arity-typed, so the store carries `Reset(arity)`
/// like `ColumnarStore` does; `AnnotatedRelation::Reset` forwards the
/// schema size the same way it does for the unsharded columnar backend.
template <typename K>
class ShardedColumnarStore {
 public:
  /// log2 of the shard count. Eight shards saturate the intra-query
  /// thread counts the engine targets (per-step parallelism beyond 8 is
  /// annotation- or memory-bound long before shard count binds) while
  /// keeping the per-shard constant overhead of small relations trivial.
  static constexpr size_t kShardBits = 3;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;

  using Shard = ColumnarStore<K>;

  /// Which shard owns a key with this hash: the top kShardBits bits —
  /// disjoint from the low bits the shard's index probing consumes.
  static constexpr size_t ShardOfHash(uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - kShardBits));
  }

  size_t arity() const { return shards_[0].arity(); }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.size();
    }
    return total;
  }
  bool empty() const { return size() == 0; }

  /// Direct shard access — the parallel runner's ownership handle: task j
  /// mutates shard(j) and nothing else.
  Shard& shard(size_t s) {
    HIERARQ_CHECK_LT(s, kNumShards);
    return shards_[s];
  }
  const Shard& shard(size_t s) const {
    HIERARQ_CHECK_LT(s, kNumShards);
    return shards_[s];
  }

  /// Drops all rows and re-targets every shard at `arity` positions.
  void Reset(size_t arity) {
    for (Shard& shard : shards_) {
      shard.Reset(arity);
    }
  }

  const K* Find(const Tuple& key) const {
    const uint64_t hash = TupleHash{}(key);
    return shards_[ShardOfHash(hash)].FindWithHash(hash, key);
  }
  bool Contains(const Tuple& key) const { return Find(key) != nullptr; }

  std::pair<K*, bool> FindOrInsert(const Tuple& key) {
    const uint64_t hash = TupleHash{}(key);
    return shards_[ShardOfHash(hash)].FindOrInsertHashed(hash, key);
  }

  void Set(const Tuple& key, K value) {
    *FindOrInsert(key).first = std::move(value);
  }

  template <typename Combine>
  void Merge(const Tuple& key, K value, Combine combine) {
    const uint64_t hash = TupleHash{}(key);
    shards_[ShardOfHash(hash)].MergeHashed(hash, key, std::move(value),
                                           combine);
  }

  bool Erase(const Tuple& key) {
    const uint64_t hash = TupleHash{}(key);
    return shards_[ShardOfHash(hash)].Erase(key);
  }

  /// Pre-sizes every shard for its expected slice of `count` keys. Hashed
  /// routing spreads keys near-uniformly, so each shard receives about
  /// count / kNumShards of them; the +1/8 slack keeps ordinary imbalance
  /// from triggering a mid-fill index rebuild (and a skewed shard simply
  /// grows, as any ColumnarStore does).
  void Reserve(size_t count) {
    const size_t per_shard = count / kNumShards;
    const size_t sized = per_shard + per_shard / 8 + 1;
    for (Shard& shard : shards_) {
      shard.Reserve(sized);
    }
  }

  /// Removes all rows; every shard keeps its column/index allocations.
  void Clear() {
    for (Shard& shard : shards_) {
      shard.Clear();
    }
  }

  /// Visits every entry, shards in index order, rows in insertion order
  /// within a shard — deterministic for a fixed shard count, independent
  /// of how many threads filled the store.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Shard& shard : shards_) {
      shard.ForEach(fn);
    }
  }

 private:
  Shard shards_[kNumShards];
};

}  // namespace hierarq

#endif  // HIERARQ_DATA_SHARDED_H_
