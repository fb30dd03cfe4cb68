#ifndef HIERARQ_CORE_PARALLEL_H_
#define HIERARQ_CORE_PARALLEL_H_

/// \file parallel.h
/// \brief Intra-query parallel Algorithm 1: hash-sharded Rule 1/Rule 2
/// steps fanned out across a `WorkerPool`.
///
/// Algorithm 1's per-step work partitions perfectly by key hash: the key
/// of every Rule 1 output group and every Rule 2 output fact determines a
/// single shard (`ShardedColumnarStore::ShardOfHash`, the hash's top
/// bits), so a
/// step splits into `kNumShards` sub-steps that share nothing but
/// read-only inputs. Each step runs in two phases:
///
///   1. **Hash.** Per-row output-key hashes are computed once, in
///      parallel over contiguous row ranges with the SIMD batch folds of
///      util/simd.h. Rule 1 hashes only the surviving columns — the hash
///      *is* the output partition key.
///   2. **Scatter/accumulate.** One task per output shard scans the
///      input(s), keeps the rows whose hash routes to its shard, and
///      accumulates them into that shard's private table — lock-free,
///      since no other task ever touches the shard. Rule 2 tasks
///      additionally probe the *whole* other side read-only with the
///      precomputed hashes. The output shards are ColumnarStores
///      (`StorageKind::kShardedColumnar`), which keeps the SIMD kernels in
///      play for downstream steps.
///
/// Both phases run inside **one** `WorkerPool::ParallelFor` per step: the
/// hash work is cut into chunk closures, every shard task claims and runs
/// chunks off a shared atomic counter, then spin-waits until all chunks
/// are done and scatters into its own shard. This fuses what used to be
/// two or three pool latches per step (hash left, hash right, scatter)
/// into exactly one — measurable via `WorkerPool::parallel_for_calls()`.
/// The wait cannot deadlock even when the pool has fewer workers than
/// tasks: a task only starts waiting after the claim counter is
/// exhausted, so every chunk is already being executed by some *running*
/// task, which finishes it without needing another scheduling slot. Hash
/// writes land at fixed addresses regardless of which task runs a chunk,
/// so fusion changes no results.
///
/// The final ⊕-fold to the nullary atom (where every row lands on one
/// key, so output sharding cannot help) instead folds fixed per-segment
/// partials in parallel and ⊕-merges them in segment order.
///
/// Determinism: shard ownership depends only on key hashes and the fixed
/// shard count, and every task scans its input in a fixed order — so
/// results are *identical for any thread count* (including one), and
/// bit-identical to the serial runner for exact monoids, whose ⊕ is fully
/// associative/commutative. Floating-point monoids see one fixed
/// shard-induced ⊕ order, within the same tolerance the storage backends
/// already imply (the differential suite checks 1e-11 relative).
///
/// Scheduling: every entry point takes an `IntraQueryParallel` handle
/// (pool + thread budget) and falls back to the bit-identical serial path
/// when disabled, when a relation is under `min_rows` (fan-out overhead
/// would dominate), or when an input lives in the `kBaseline` reference
/// backend (which exposes no range-scannable layout). The step loop
/// itself (`RunEliminationSteps`, core/algorithm1.h) calls the two step
/// primitives at the bottom of this file for every step. `ParallelFor`
/// must be driven from outside the pool — `Evaluator` calls these on the
/// client thread, exactly like `EvalService`'s across-query fan-out.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "hierarq/data/annotated.h"
#include "hierarq/data/columnar.h"
#include "hierarq/data/sharded.h"
#include "hierarq/data/storage.h"
#include "hierarq/data/tuple.h"
#include "hierarq/query/var_set.h"
#include "hierarq/util/hash.h"
#include "hierarq/util/logging.h"
#include "hierarq/util/simd.h"
#include "hierarq/util/worker_pool.h"

namespace hierarq {

/// How (and whether) one evaluation may parallelize inside a single
/// query. Plain aggregate, cheap to pass by value; the pool is borrowed.
struct IntraQueryParallel {
  /// Executes the per-shard tasks; nullptr disables parallelism. Must be
  /// driven from outside the pool (no task of `pool` may re-enter).
  WorkerPool* pool = nullptr;
  /// Advisory parallelism: <= 1 disables. Per-step fan-out is capped by
  /// `ShardedColumnarStore::kNumShards` regardless.
  size_t threads = 1;
  /// Steps whose input support is below this run serially — the fan-out
  /// latch and task overhead cost more than they save on small tables.
  size_t min_rows = 4096;

  bool enabled() const { return pool != nullptr && threads > 1; }
};

/// What one step primitive actually did — the parallel-vs-serial
/// predicate is computed inside ProjectDropStep/JoinUnionStep, and the
/// step loop (and its trace events) learns the outcome through this
/// out-param instead of re-deriving it.
struct StepExecution {
  bool parallel = false;
  size_t threads = 1;
};

namespace parallel_internal {

/// Deterministic [begin, end) slice `i` of `n` elements cut into `parts`.
inline std::pair<size_t, size_t> Slice(size_t n, size_t parts, size_t i) {
  return {n * i / parts, n * (i + 1) / parts};
}

/// True when the parallel path can scan this relation's layout (the
/// baseline unordered_map exposes no slot ranges).
template <typename K>
bool RangeScannable(const AnnotatedRelation<K>& rel) {
  return rel.storage() != StorageKind::kBaseline;
}

/// Probes `rel` for `key` with its hash precomputed (`hash` ==
/// `HashRange` over `key`'s values). Works on every backend; the
/// baseline ignores the hash.
template <typename K>
const K* FindWithHash(const AnnotatedRelation<K>& rel, uint64_t hash,
                      const Tuple& key) {
  switch (rel.storage()) {
    case StorageKind::kColumnar:
      return rel.columnar_store().FindWithHash(hash, key);
    case StorageKind::kShardedColumnar: {
      const auto& store = rel.sharded_columnar_store();
      return store.shard(store.ShardOfHash(hash)).FindWithHash(hash, key);
    }
    case StorageKind::kBaseline:
      return rel.Find(key);
  }
  HIERARQ_CHECK(false) << "unhandled StorageKind";
  return nullptr;
}

/// Visits every fact of `rel` as (hash, key, value) where `hash` is
/// looked up in the side arrays `PrecomputeHashes` filled — the shard
/// tasks' filtered rescan. Enumeration order is fixed (rows ascending;
/// for sharded inputs, shards ascending then rows), which is what makes
/// shard contents deterministic. `key_scratch` is reused across rows.
template <typename K, typename Fn>
void ScanWithHashes(const AnnotatedRelation<K>& rel,
                    const std::vector<std::vector<uint64_t>>& hashes,
                    Tuple* key_scratch, Fn fn) {
  switch (rel.storage()) {
    case StorageKind::kColumnar: {
      const ColumnarStore<K>& store = rel.columnar_store();
      const size_t arity = store.arity();
      const size_t n = store.size();
      key_scratch->resize(arity);
      const std::vector<uint64_t>& row_hashes = hashes.front();
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < arity; ++c) {
          (*key_scratch)[c] = store.column(c)[r];
        }
        fn(row_hashes[r], static_cast<const Tuple&>(*key_scratch),
           store.row_value(static_cast<uint32_t>(r)));
      }
      return;
    }
    case StorageKind::kShardedColumnar: {
      const ShardedColumnarStore<K>& store = rel.sharded_columnar_store();
      for (size_t s = 0; s < ShardedColumnarStore<K>::kNumShards; ++s) {
        const ColumnarStore<K>& shard = store.shard(s);
        const std::vector<uint64_t>& row_hashes = hashes[s];
        const size_t arity = shard.arity();
        const size_t n = shard.size();
        key_scratch->resize(arity);
        for (size_t r = 0; r < n; ++r) {
          for (size_t c = 0; c < arity; ++c) {
            (*key_scratch)[c] = shard.column(c)[r];
          }
          fn(row_hashes[r], static_cast<const Tuple&>(*key_scratch),
             shard.row_value(static_cast<uint32_t>(r)));
        }
      }
      return;
    }
    case StorageKind::kBaseline:
      break;
  }
  HIERARQ_CHECK(false) << "baseline relations take the serial path";
}

/// Pre-sizes `*hashes` (one per-row array per enumeration segment of
/// `rel`: one for columnar, one per shard for sharded columnar) and
/// appends closures to `*chunks`, each of which fills one contiguous
/// piece, hashing only the columns `keep(position)` admits in ascending
/// position order — Rule 1 passes the survivor filter, Rule 2 keeps
/// everything. The closures are independent and write disjoint fixed
/// locations, so any task may run any chunk; they are executed inside the
/// step's single fused ParallelFor (see RunChunksThenShards). `tasks`
/// controls the chunk granularity of the unsharded layout.
template <typename K, typename Keep>
void AppendHashChunks(const AnnotatedRelation<K>& rel, Keep keep,
                      size_t tasks,
                      std::vector<std::vector<uint64_t>>* hashes,
                      std::vector<std::function<void()>>* chunks) {
  switch (rel.storage()) {
    case StorageKind::kColumnar: {
      const ColumnarStore<K>& store = rel.columnar_store();
      std::vector<size_t> cols;
      cols.reserve(store.arity());
      for (size_t c = 0; c < store.arity(); ++c) {
        if (keep(c)) {
          cols.push_back(c);
        }
      }
      hashes->resize(1);
      std::vector<uint64_t>& row_hashes = (*hashes)[0];
      const size_t n = store.size();
      row_hashes.resize(n);
      for (size_t i = 0; i < tasks; ++i) {
        chunks->push_back([&store, &row_hashes, cols, n, tasks, i] {
          const auto [lo, hi] = Slice(n, tasks, i);
          std::fill(row_hashes.begin() + lo, row_hashes.begin() + hi,
                    kHashRangeSeed);
          for (size_t c : cols) {
            simd::HashCombineRows(row_hashes.data() + lo,
                                  store.column(c).data() + lo, hi - lo);
          }
        });
      }
      return;
    }
    case StorageKind::kShardedColumnar: {
      const ShardedColumnarStore<K>& store = rel.sharded_columnar_store();
      std::vector<size_t> cols;
      cols.reserve(store.arity());
      for (size_t c = 0; c < store.arity(); ++c) {
        if (keep(c)) {
          cols.push_back(c);
        }
      }
      hashes->resize(ShardedColumnarStore<K>::kNumShards);
      for (size_t s = 0; s < ShardedColumnarStore<K>::kNumShards; ++s) {
        // One chunk per input shard; the closure owns its whole array, so
        // it sizes the array itself.
        std::vector<uint64_t>& row_hashes = (*hashes)[s];
        chunks->push_back([&store, &row_hashes, cols, s] {
          const ColumnarStore<K>& shard = store.shard(s);
          const size_t n = shard.size();
          row_hashes.assign(n, kHashRangeSeed);
          for (size_t c : cols) {
            simd::HashCombineRows(row_hashes.data(), shard.column(c).data(),
                                  n);
          }
        });
      }
      return;
    }
    case StorageKind::kBaseline:
      break;
  }
  HIERARQ_CHECK(false) << "baseline relations take the serial path";
}

/// The fused-step driver: ONE ParallelFor of `num_shards` tasks runs the
/// hash chunks *and* the per-shard scatter. Each task drains chunks off a
/// shared claim counter, then waits (cooperatively — see the deadlock
/// argument in the file comment) until every chunk is done before
/// scattering into its own shard. The release-increment/acquire-load pair
/// on `chunks_done` orders all chunk writes before every shard task's
/// reads.
inline void RunChunksThenShards(
    WorkerPool* pool, size_t num_shards,
    const std::vector<std::function<void()>>& chunks,
    const std::function<void(size_t shard)>& shard_task) {
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};
  const size_t total = chunks.size();
  pool->ParallelFor(num_shards, [&](size_t, size_t j) {
    while (true) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= total) {
        break;
      }
      chunks[c]();
      chunks_done.fetch_add(1, std::memory_order_release);
    }
    while (chunks_done.load(std::memory_order_acquire) < total) {
      std::this_thread::yield();
    }
    shard_task(j);
  });
}

}  // namespace parallel_internal

/// Rule 1, hash-sharded: ⊕-projects schema position `drop_pos` out of
/// `src` into `out`, which the caller has Reset to the surviving schema
/// in kShardedColumnar. One fused ParallelFor computes the surviving-key
/// hashes and scatters — each output shard task accumulates the rows
/// whose hash it owns. Preconditions: `par.enabled()`, `src` not
/// baseline.
template <typename K, typename Plus>
void ParallelProjectDropInto(const AnnotatedRelation<K>& src,
                             size_t drop_pos, Plus plus,
                             const IntraQueryParallel& par,
                             AnnotatedRelation<K>* out) {
  using Sharded = ShardedColumnarStore<K>;
  HIERARQ_CHECK(par.enabled());
  HIERARQ_CHECK_LT(drop_pos, src.schema().size());
  HIERARQ_CHECK_EQ(out->schema().size() + 1, src.schema().size());

  std::vector<std::vector<uint64_t>> hashes;
  std::vector<std::function<void()>> chunks;
  parallel_internal::AppendHashChunks(
      src, [drop_pos](size_t c) { return c != drop_pos; }, par.threads,
      &hashes, &chunks);

  out->Reserve(src.size());
  Sharded& sharded = out->mutable_sharded_columnar_store();
  parallel_internal::RunChunksThenShards(
      par.pool, Sharded::kNumShards, chunks, [&](size_t j) {
        typename Sharded::Shard& mine = sharded.shard(j);
        Tuple scan_scratch;
        Tuple projected;
        parallel_internal::ScanWithHashes(
            src, hashes, &scan_scratch,
            [&](uint64_t hash, const Tuple& key, const K& value) {
              if (Sharded::ShardOfHash(hash) != j) {
                return;
              }
              projected.clear();
              for (size_t c = 0; c < key.size(); ++c) {
                if (c != drop_pos) {
                  projected.push_back(key[c]);
                }
              }
              mine.MergeHashed(hash, projected, value, plus);
            });
      });
}

/// Rule 2, hash-sharded: out(x) = left(x) ⊗ right(x) over the union of
/// supports. One fused ParallelFor hashes both sides and scatters: each
/// output-shard task scans both sides filtered to its hash range and
/// probes the opposite side read-only with the precomputed hash
/// (one-sided facts multiply with `zero`, exactly like the serial native;
/// only absent-absent pairs are skipped — Lemma 6.6). Preconditions:
/// `par.enabled()`, neither input baseline, `out` Reset to the common
/// schema in kShardedColumnar.
template <typename K, typename Times>
void ParallelJoinUnionInto(const AnnotatedRelation<K>& left,
                           const AnnotatedRelation<K>& right, Times times,
                           const K& zero, const IntraQueryParallel& par,
                           AnnotatedRelation<K>* out) {
  using Sharded = ShardedColumnarStore<K>;
  HIERARQ_CHECK(par.enabled());
  HIERARQ_CHECK(left.schema() == right.schema())
      << "Rule 2 requires equal schemas";
  HIERARQ_CHECK(out->schema() == left.schema());

  const auto keep_all = [](size_t) { return true; };
  std::vector<std::vector<uint64_t>> left_hashes;
  std::vector<std::vector<uint64_t>> right_hashes;
  std::vector<std::function<void()>> chunks;
  parallel_internal::AppendHashChunks(left, keep_all, par.threads,
                                      &left_hashes, &chunks);
  parallel_internal::AppendHashChunks(right, keep_all, par.threads,
                                      &right_hashes, &chunks);

  out->Reserve(left.size() + right.size());  // Lemma 6.6 bound.
  Sharded& sharded = out->mutable_sharded_columnar_store();
  parallel_internal::RunChunksThenShards(
      par.pool, Sharded::kNumShards, chunks, [&](size_t j) {
        typename Sharded::Shard& mine = sharded.shard(j);
        Tuple scan_scratch;
        // Left pass: every left key lands in the result, joined against
        // the right annotation or zero.
        parallel_internal::ScanWithHashes(
            left, left_hashes, &scan_scratch,
            [&](uint64_t hash, const Tuple& key, const K& value) {
              if (Sharded::ShardOfHash(hash) != j) {
                return;
              }
              const K* other =
                  parallel_internal::FindWithHash(right, hash, key);
              auto [slot, inserted] = mine.FindOrInsertHashed(hash, key);
              HIERARQ_CHECK(inserted);  // Left keys are unique.
              *slot = times(value, other != nullptr ? *other : zero);
            });
        // Right pass: only keys absent from the left still need a result
        // entry; shared keys were finalized above.
        parallel_internal::ScanWithHashes(
            right, right_hashes, &scan_scratch,
            [&](uint64_t hash, const Tuple& key, const K& value) {
              if (Sharded::ShardOfHash(hash) != j) {
                return;
              }
              auto [slot, inserted] = mine.FindOrInsertHashed(hash, key);
              if (inserted) {
                *slot = times(zero, value);
              }
            });
      });
}

/// The terminal Rule 1 shape: every row of `src` folds into the single
/// nullary key, so output sharding cannot split the work — instead each
/// task ⊕-folds one fixed input segment and the partials ⊕-merge in
/// segment order (the "cheap ⊕-merge of shard results"). Returns nullopt
/// for an empty support (the empty ⊕). Deterministic for any thread
/// count: segments are fixed fractions of the enumeration, not
/// work-stealing chunks.
template <typename K, typename Plus>
std::optional<K> ParallelFoldSupport(const AnnotatedRelation<K>& src,
                                     Plus plus,
                                     const IntraQueryParallel& par) {
  HIERARQ_CHECK(par.enabled());
  constexpr size_t kSegments = ShardedColumnarStore<K>::kNumShards;
  std::vector<std::optional<K>> partial(kSegments);

  const auto fold_into = [&plus](std::optional<K>& acc, const K& value) {
    if (!acc.has_value()) {
      acc = value;
    } else {
      acc = plus(*acc, value);
    }
  };

  switch (src.storage()) {
    case StorageKind::kColumnar: {
      const ColumnarStore<K>& store = src.columnar_store();
      const size_t n = store.size();
      par.pool->ParallelFor(kSegments, [&](size_t, size_t s) {
        const auto [lo, hi] = parallel_internal::Slice(n, kSegments, s);
        for (size_t r = lo; r < hi; ++r) {
          fold_into(partial[s], store.row_value(static_cast<uint32_t>(r)));
        }
      });
      break;
    }
    case StorageKind::kShardedColumnar: {
      const ShardedColumnarStore<K>& store = src.sharded_columnar_store();
      par.pool->ParallelFor(kSegments, [&](size_t, size_t s) {
        const ColumnarStore<K>& shard = store.shard(s);
        const size_t n = shard.size();
        for (size_t r = 0; r < n; ++r) {
          fold_into(partial[s], shard.row_value(static_cast<uint32_t>(r)));
        }
      });
      break;
    }
    case StorageKind::kBaseline: {
      // No range-scannable layout; fold serially (callers normally route
      // baseline inputs to the serial runner before getting here).
      std::optional<K> acc;
      src.ForEach(
          [&](const Tuple&, const K& value) { fold_into(acc, value); });
      return acc;
    }
  }

  std::optional<K> acc;
  for (std::optional<K>& part : partial) {
    if (part.has_value()) {
      fold_into(acc, *part);
    }
  }
  return acc;
}

/// One Rule 1 step with the parallel-vs-serial decision made in one
/// place (the step loop, `RunEliminationSteps` in core/algorithm1.h,
/// runs every Rule 1 step through it): the terminal nullary projection
/// takes the segment fold, other big range-scannable sources take the
/// sharded scatter, everything else runs the bit-identical serial native
/// into `serial_storage`. Resets `*result`; never Clears `source`.
template <typename K, typename Plus>
void ProjectDropStep(const AnnotatedRelation<K>& source, size_t drop_pos,
                     const VarSet& result_vars, Plus plus,
                     const IntraQueryParallel& par,
                     StorageKind serial_storage,
                     AnnotatedRelation<K>* result,
                     StepExecution* exec = nullptr) {
  const bool big = par.enabled() && source.size() >= par.min_rows &&
                   parallel_internal::RangeScannable(source);
  if (exec != nullptr) {
    exec->parallel = big;
    exec->threads = big ? par.threads : 1;
  }
  if (big && result_vars.empty()) {
    // Terminal fold: all rows land on the empty key, so output sharding
    // cannot split the work; the single-key result stays unsharded.
    result->Reset(result_vars, StorageKind::kColumnar);
    std::optional<K> folded = ParallelFoldSupport(source, plus, par);
    if (folded.has_value()) {
      result->Set(Tuple{}, *std::move(folded));
    }
  } else if (big) {
    result->Reset(result_vars, StorageKind::kShardedColumnar);
    ParallelProjectDropInto(source, drop_pos, plus, par, result);
  } else {
    result->Reset(result_vars, serial_storage);
    source.ProjectDropInto(drop_pos, plus, result);
  }
}

/// One Rule 2 step, parallel-vs-serial decided exactly like
/// ProjectDropStep (nullary results always run serial — they hold at
/// most one key). Resets `*result`; never Clears the operands.
template <typename K, typename Times>
void JoinUnionStep(const AnnotatedRelation<K>& left,
                   const AnnotatedRelation<K>& right,
                   const VarSet& result_vars, Times times, const K& zero,
                   const IntraQueryParallel& par, StorageKind serial_storage,
                   AnnotatedRelation<K>* result,
                   StepExecution* exec = nullptr) {
  const bool big = par.enabled() && !result_vars.empty() &&
                   left.size() + right.size() >= par.min_rows &&
                   parallel_internal::RangeScannable(left) &&
                   parallel_internal::RangeScannable(right);
  if (exec != nullptr) {
    exec->parallel = big;
    exec->threads = big ? par.threads : 1;
  }
  if (big) {
    result->Reset(result_vars, StorageKind::kShardedColumnar);
    ParallelJoinUnionInto(left, right, times, zero, par, result);
  } else {
    result->Reset(result_vars, serial_storage);
    AnnotatedRelation<K>::JoinUnionInto(left, right, times, zero, result);
  }
}

}  // namespace hierarq

#endif  // HIERARQ_CORE_PARALLEL_H_
