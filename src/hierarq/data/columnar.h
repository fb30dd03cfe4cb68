#ifndef HIERARQ_DATA_COLUMNAR_H_
#define HIERARQ_DATA_COLUMNAR_H_

/// \file columnar.h
/// \brief `ColumnarStore` — column-major storage for annotated relations.
///
/// A table keyed by whole tuples makes Rule 1's drop-one-variable
/// projection re-hash and re-compare every surviving position of every
/// fact *through the tuple*, touching bytes the projection is about to
/// discard. `ColumnarStore` decomposes a relation by schema position
/// instead:
///
///   * one dense `std::vector<Value>` per schema position (row r's key is
///     `columns_[0][r], ..., columns_[arity-1][r]`);
///   * one dense `std::vector<K>` of annotations, parallel to the rows;
///   * a row-id hash index: a robin-hood open-addressing table whose
///     slots hold row ids, probed with a per-row hash folded over the
///     columns. Key compares walk `columns_[c][row]` — column-strided
///     loops over contiguous arrays, the layout SIMD key compares want.
///
/// The column loops run on the vector kernels of util/simd.h (batched
/// Mix64 hash folds over 2/4 rows per instruction, probe-key compares
/// against gathered column lanes; scalar fallback, runtime-dispatched),
/// and the batch probe loops of the Rule 2 native prefetch the index
/// slots a few rows ahead so the random-access meta/row loads overlap.
/// All tiers produce bit-identical hashes — the kernels are pure integer
/// math — so results do not depend on the host's vector width.
///
/// Rows are appended by inserts and removed one at a time only by `Erase`
/// (the incremental subsystem deletes single facts from materialized
/// relations): the erased row swaps with the last row so the columns stay
/// dense, and the index entry of the swapped row is re-pointed while the
/// erased row's slot is removed by robin-hood backward-shift — the index
/// never needs tombstones. The per-row hash is folded column-by-column
/// with the same `HashCombine` sequence `HashRange` applies to a whole
/// tuple, so tuple-keyed probes (`Find(const Tuple&)`) and batch
/// column-wise hashing agree on every key.
///
/// The payoff is in the Algorithm 1 natives:
///   * `ProjectDropInto` (Rule 1) batch-hashes only the *surviving*
///     columns — the dropped column's bytes are never read — then
///     ⊕-merges rows into the result;
///   * `JoinUnionInto` (Rule 2) batch-hashes each side once, probes the
///     other side per row, and builds the result's index with
///     compare-free inserts (output keys are unique by Lemma 6.6's
///     union-of-supports argument, so equality checks are unnecessary).
///
/// Pointers returned by `Find`/`FindOrInsert` are invalidated by the next
/// mutating call, like iterators of any rehashing table.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hierarq/data/tuple.h"
#include "hierarq/util/hash.h"
#include "hierarq/util/logging.h"
#include "hierarq/util/simd.h"

namespace hierarq {

template <typename K>
class ColumnarStore {
 public:
  ColumnarStore() = default;
  explicit ColumnarStore(size_t arity) { Reset(arity); }

  // Copies transfer the rows and the index but not the per-run hash
  // scratch buffers — AssignFrom-driven replay copies (the service hot
  // path) must not pay for dead scratch bandwidth. Moves stay wholesale.
  ColumnarStore(const ColumnarStore& other)
      : columns_(other.columns_),
        values_(other.values_),
        meta_(other.meta_),
        rows_(other.rows_) {}
  ColumnarStore& operator=(const ColumnarStore& other) {
    columns_ = other.columns_;
    values_ = other.values_;
    meta_ = other.meta_;
    rows_ = other.rows_;
    return *this;
  }
  ColumnarStore(ColumnarStore&&) = default;
  ColumnarStore& operator=(ColumnarStore&&) = default;

  size_t arity() const { return columns_.size(); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Drops all rows and re-targets the store at `arity` positions. Kept
  /// columns and the index keep their allocations (the buffer-reuse entry
  /// point: a store reused across evaluations reaches steady state with
  /// zero allocations).
  void Reset(size_t arity) {
    Clear();
    columns_.resize(arity);
  }

  /// Removes all rows but keeps column, value, and index allocations.
  void Clear() {
    for (std::vector<Value>& column : columns_) {
      column.clear();
    }
    values_.clear();  // Destroys annotations, releasing any heap they own.
    if (!meta_.empty()) {
      std::fill(meta_.begin(), meta_.end(), uint8_t{0});
    }
  }

  /// Pre-sizes columns, values, and the row-id index for `count` rows so
  /// inserts proceed without reallocation or index growth.
  void Reserve(size_t count) {
    for (std::vector<Value>& column : columns_) {
      column.reserve(count);
    }
    values_.reserve(count);
    size_t needed = kMinCapacity;
    while (needed * kMaxLoadDen < count * kMaxLoadNum) {
      needed *= 2;
    }
    if (needed > meta_.size()) {
      RebuildIndex(needed);
    }
  }

  /// Returns the annotation of `key`, or nullptr when absent.
  const K* Find(const Tuple& key) const {
    HIERARQ_CHECK_EQ(key.size(), arity());
    const uint32_t row = FindRow(HashRange(key.begin(), key.end()),
                                 [&](uint32_t r) { return RowEquals(r, key); });
    return row == kNoRow ? nullptr : &values_[row].value;
  }

  bool Contains(const Tuple& key) const { return Find(key) != nullptr; }

  /// Combined find-else-insert (one probe sequence): returns the
  /// annotation slot of `key` and whether it was just inserted
  /// (value-initialized; the caller assigns the real annotation).
  std::pair<K*, bool> FindOrInsert(const Tuple& key) {
    HIERARQ_CHECK_EQ(key.size(), arity());
    auto [row, inserted] = FindOrInsertRow(
        HashRange(key.begin(), key.end()),
        [&](uint32_t r) { return RowEquals(r, key); },
        [&] {
          for (size_t c = 0; c < columns_.size(); ++c) {
            columns_[c].push_back(key[c]);
          }
          values_.emplace_back();
        });
    return {&values_[row].value, inserted};
  }

  /// Sets the annotation of `key` (inserting or overwriting).
  void Set(const Tuple& key, K value) {
    *FindOrInsert(key).first = std::move(value);
  }

  /// Inserts `value` at `key`, or combines with the existing annotation
  /// via `combine(existing, value)`.
  template <typename Combine>
  void Merge(const Tuple& key, K value, Combine combine) {
    auto [slot, inserted] = FindOrInsert(key);
    if (inserted) {
      *slot = std::move(value);
    } else {
      *slot = combine(*slot, value);
    }
  }

  /// Removes `key` if present; true iff removed. The erased row swaps with
  /// the last row (columns stay dense, row ids stay < size()); the index
  /// removes the erased slot by backward-shift and re-points the swapped
  /// row's slot at its new id. O(arity + probe chain).
  bool Erase(const Tuple& key) {
    HIERARQ_CHECK_EQ(key.size(), arity());
    if (values_.empty() || meta_.empty()) {
      return false;
    }
    // Locate the slot (not just the row): the backward-shift needs it.
    const size_t mask = meta_.size() - 1;
    size_t index = HashRange(key.begin(), key.end()) & mask;
    uint8_t distance = 1;
    while (true) {
      const uint8_t slot = meta_[index];
      if (slot == 0 || slot < distance) {
        return false;  // Robin-hood invariant: key would sit here.
      }
      if (slot == distance && RowEquals(rows_[index], key)) {
        break;
      }
      index = (index + 1) & mask;
      ++distance;
    }
    const uint32_t row = rows_[index];

    // Backward-shift the erased slot out of the index.
    size_t hole = index;
    while (true) {
      const size_t next = (hole + 1) & mask;
      if (meta_[next] <= 1) {
        break;
      }
      rows_[hole] = rows_[next];
      meta_[hole] = meta_[next] - 1;
      hole = next;
    }
    meta_[hole] = 0;

    // Swap-remove the row; re-point the moved row's index entry.
    const uint32_t last = static_cast<uint32_t>(values_.size()) - 1;
    if (row != last) {
      uint64_t moved_hash = kHashRangeSeed;
      for (std::vector<Value>& column : columns_) {
        column[row] = column[last];
        moved_hash =
            HashCombine(moved_hash, static_cast<uint64_t>(column[row]));
      }
      values_[row] = std::move(values_[last]);
      // Row ids are unique, so scanning the moved row's probe chain for id
      // `last` finds exactly its slot.
      size_t probe = moved_hash & mask;
      while (meta_[probe] == 0 || rows_[probe] != last) {
        probe = (probe + 1) & mask;
      }
      rows_[probe] = row;
    }
    for (std::vector<Value>& column : columns_) {
      column.pop_back();
    }
    values_.pop_back();
    return true;
  }

  /// Visits every row as (key, annotation), materializing keys into one
  /// scratch tuple reused across rows. Row order is insertion order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    Tuple key;
    key.resize(arity());
    const size_t n = size();
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        key[c] = columns_[c][r];
      }
      fn(static_cast<const Tuple&>(key), values_[r].value);
    }
  }

  /// Rule 1 native: ⊕-projects the position `drop_pos` out of this store
  /// into `out` (already Reset to arity-1). Phase 1 folds per-row hashes
  /// over the surviving columns only — the dropped column is never read —
  /// in column-strided passes; phase 2 appends or ⊕-merges each row.
  template <typename Plus>
  void ProjectDropInto(size_t drop_pos, Plus plus, ColumnarStore* out) const {
    HIERARQ_CHECK_LT(drop_pos, arity());
    HIERARQ_CHECK_EQ(out->arity(), arity() - 1);
    out->Reserve(size());

    std::vector<size_t> survivors;
    survivors.reserve(arity() - 1);
    for (size_t c = 0; c < arity(); ++c) {
      if (c != drop_pos) {
        survivors.push_back(c);
      }
    }
    ComputeRowHashes(survivors, &hash_scratch_);

    const size_t n = size();
    for (size_t r = 0; r < n; ++r) {
      if (r + kProbeAhead < n) {
        out->PrefetchProbe(hash_scratch_[r + kProbeAhead]);
      }
      auto [row, inserted] = out->FindOrInsertRow(
          hash_scratch_[r],
          [&](uint32_t q) {
            for (size_t j = 0; j < survivors.size(); ++j) {
              if (out->columns_[j][q] != columns_[survivors[j]][r]) {
                return false;
              }
            }
            return true;
          },
          [&] {
            for (size_t j = 0; j < survivors.size(); ++j) {
              out->columns_[j].push_back(columns_[survivors[j]][r]);
            }
            out->values_.push_back(values_[r]);
          });
      if (!inserted) {
        out->values_[row].value =
            plus(out->values_[row].value, values_[r].value);
      }
    }
  }

  /// Rule 2 native: out(x) = left(x) ⊗ right(x) over the *union* of
  /// supports (absent side contributes `zero`; only absent-absent pairs
  /// are skipped — Lemma 6.6). Output keys are unique by construction, so
  /// the result index is built with compare-free inserts.
  template <typename Times>
  static void JoinUnionInto(const ColumnarStore& left,
                            const ColumnarStore& right, Times times,
                            const K& zero, ColumnarStore* out) {
    HIERARQ_CHECK_EQ(left.arity(), right.arity());
    HIERARQ_CHECK_EQ(out->arity(), left.arity());
    out->Reserve(left.size() + right.size());  // Lemma 6.6 bound.
    const size_t arity = left.arity();

    // Both probe loops walk rows in order with fully precomputed hashes,
    // so the index lines each probe will touch are known kProbeAhead rows
    // early — prefetching them overlaps the random meta/row loads that
    // dominate large joins.
    left.ComputeAllRowHashes(&left.hash_scratch_);
    const size_t nl = left.size();
    for (size_t r = 0; r < nl; ++r) {
      if (r + kProbeAhead < nl) {
        right.PrefetchProbe(left.hash_scratch_[r + kProbeAhead]);
      }
      const uint32_t other =
          right.FindRow(left.hash_scratch_[r], [&](uint32_t q) {
            return RowsEqual(left, r, right, q, arity);
          });
      out->AppendUnique(
          left.hash_scratch_[r], left, r,
          times(left.values_[r].value,
                other == kNoRow ? zero : right.values_[other].value));
    }

    right.ComputeAllRowHashes(&right.hash_scratch_);
    const size_t nr = right.size();
    for (size_t r = 0; r < nr; ++r) {
      if (r + kProbeAhead < nr) {
        left.PrefetchProbe(right.hash_scratch_[r + kProbeAhead]);
      }
      const uint32_t shared =
          left.FindRow(right.hash_scratch_[r], [&](uint32_t q) {
            return RowsEqual(right, r, left, q, arity);
          });
      if (shared == kNoRow) {
        out->AppendUnique(right.hash_scratch_[r], right, r,
                          times(zero, right.values_[r].value));
      }
    }
  }

  /// Hints the cache that a probe for `hash` is imminent: touches the
  /// index line the probe sequence starts at. Purely advisory.
  void PrefetchProbe(uint64_t hash) const {
    if (meta_.empty()) {
      return;
    }
    const size_t index = hash & (meta_.size() - 1);
    simd::PrefetchRead(meta_.data() + index);
    simd::PrefetchRead(rows_.data() + index);
  }

  /// Optional row reorder for cache-linear probing: sorts rows by the
  /// index slot their hash homes to (hash & index mask — the probe
  /// address prefix), so a row-order scan that probes an equally-sized
  /// index walks it monotonically instead of randomly, then rebuilds this
  /// store's own index over the new row ids. Content-neutral: the same
  /// keys map to the same annotations; only row ids and ForEach order
  /// change (callers must already not rely on those). Worth its O(n log n)
  /// only before repeated large probe sweeps.
  void SortRowsByHashPrefix() {
    const size_t n = size();
    if (n <= 1) {
      return;
    }
    ComputeAllRowHashes(&hash_scratch_);
    const size_t mask = meta_.empty() ? ~size_t{0} : meta_.size() - 1;
    std::vector<uint32_t> order(n);
    for (size_t r = 0; r < n; ++r) {
      order[r] = static_cast<uint32_t>(r);
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint64_t slot_a = hash_scratch_[a] & mask;
      const uint64_t slot_b = hash_scratch_[b] & mask;
      return slot_a != slot_b ? slot_a < slot_b : a < b;
    });
    std::vector<Value> column_scratch(n);
    for (std::vector<Value>& column : columns_) {
      for (size_t r = 0; r < n; ++r) {
        column_scratch[r] = column[order[r]];
      }
      column.swap(column_scratch);
    }
    std::vector<Slot> value_scratch(n);
    for (size_t r = 0; r < n; ++r) {
      value_scratch[r] = std::move(values_[order[r]]);
    }
    values_.swap(value_scratch);
    RebuildIndex(std::max(meta_.size(), kMinCapacity));
  }

 private:
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  /// How many rows ahead the batch loops prefetch their next probes; deep
  /// enough to cover a memory load, shallow enough to stay in flight.
  static constexpr size_t kProbeAhead = 16;
  static constexpr size_t kMinCapacity = 8;
  // 7/8 maximum load: denser tables iterate cheaper, and robin-hood keeps
  // probe variance low at high load.
  static constexpr size_t kMaxLoadNum = 8;
  static constexpr size_t kMaxLoadDen = 7;
  static constexpr uint8_t kMaxDistance = 255;

  bool RowEquals(uint32_t row, const Tuple& key) const {
    return simd::RowEqualsKey(columns_, row, key.data(), columns_.size());
  }

  static bool RowsEqual(const ColumnarStore& a, size_t ra,
                        const ColumnarStore& b, size_t rb, size_t arity) {
    for (size_t c = 0; c < arity; ++c) {
      if (a.columns_[c][ra] != b.columns_[c][rb]) {
        return false;
      }
    }
    return true;
  }

  /// Folds per-row hashes over `cols` (in the given order) into
  /// `*hashes`, one column-strided vector-kernel pass per column
  /// (util/simd.h). Matches HashRange(values in that column order)
  /// exactly on every tier.
  void ComputeRowHashes(const std::vector<size_t>& cols,
                        std::vector<uint64_t>* hashes) const {
    hashes->assign(size(), kHashRangeSeed);
    const size_t n = size();
    for (size_t c : cols) {
      simd::HashCombineRows(hashes->data(), columns_[c].data(), n);
    }
  }

  void ComputeAllRowHashes(std::vector<uint64_t>* hashes) const {
    hashes->assign(size(), kHashRangeSeed);
    const size_t n = size();
    for (const std::vector<Value>& col : columns_) {
      simd::HashCombineRows(hashes->data(), col.data(), n);
    }
  }

  bool IndexNeedsGrowth() const {
    return (values_.size() + 1) * kMaxLoadNum > meta_.size() * kMaxLoadDen;
  }

  /// Probes the index for a row with the given key hash; `eq(row)` settles
  /// equality. Returns kNoRow when absent.
  template <typename Eq>
  uint32_t FindRow(uint64_t hash, Eq eq) const {
    if (values_.empty() || meta_.empty()) {
      return kNoRow;
    }
    const size_t mask = meta_.size() - 1;
    size_t index = hash & mask;
    uint8_t distance = 1;
    while (true) {
      const uint8_t slot = meta_[index];
      if (slot == 0 || slot < distance) {
        return kNoRow;  // Robin-hood invariant: key would sit here.
      }
      if (slot == distance && eq(rows_[index])) {
        return rows_[index];
      }
      index = (index + 1) & mask;
      ++distance;
    }
  }

  /// One probe sequence for find-else-insert. When inserting, `append()`
  /// must push the new row's column values and annotation (its id is
  /// values_.size() at call time); it runs before any index displacement
  /// so an overflow-triggered rebuild sees complete column data.
  template <typename Eq, typename Append>
  std::pair<uint32_t, bool> FindOrInsertRow(uint64_t hash, Eq eq,
                                            Append append) {
    if (IndexNeedsGrowth()) {
      RebuildIndex(meta_.empty() ? kMinCapacity : meta_.size() * 2);
    }
    const size_t mask = meta_.size() - 1;
    size_t index = hash & mask;
    uint8_t distance = 1;
    while (true) {
      // Overflow check first, before any branch can store `distance`:
      // stored metadata must stay <= kMaxDistance - 1, the invariant
      // InsertDisplaced, InsertUniqueNoGrow, and FindRow's termination
      // argument rely on.
      if (distance == kMaxDistance) {
        RebuildIndex(meta_.size() * 2);
        return FindOrInsertRow(hash, eq, append);
      }
      const uint8_t slot = meta_[index];
      if (slot == 0) {
        const uint32_t row = NextRowId();
        append();
        meta_[index] = distance;
        rows_[index] = row;
        return {row, true};
      }
      if (slot == distance && eq(rows_[index])) {
        return {rows_[index], false};
      }
      if (slot < distance) {
        // Claim the richer slot; push the displaced id further along.
        const uint32_t row = NextRowId();
        append();
        const uint32_t displaced_row = rows_[index];
        const uint8_t displaced_distance = slot;
        rows_[index] = row;
        meta_[index] = distance;
        InsertDisplaced(displaced_row, displaced_distance,
                        (index + 1) & mask);
        return {row, true};
      }
      index = (index + 1) & mask;
      ++distance;
    }
  }

  /// Appends one row copied from `src`'s row `r` plus its annotation and
  /// indexes it, relying on the caller's guarantee that the key is not yet
  /// present — no equality checks on the probe path (Rule 2's compare-free
  /// result build).
  void AppendUnique(uint64_t hash, const ColumnarStore& src, size_t r,
                    K value) {
    if (IndexNeedsGrowth()) {
      RebuildIndex(meta_.empty() ? kMinCapacity : meta_.size() * 2);
    }
    const uint32_t row = NextRowId();
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(src.columns_[c][r]);
    }
    values_.push_back(Slot{std::move(value)});
    if (!InsertUniqueNoGrow(hash, row)) {
      RebuildIndex(meta_.size() * 2);  // Re-indexes every row, incl. `row`.
    }
  }

  uint32_t NextRowId() const {
    HIERARQ_CHECK_LT(values_.size(), static_cast<size_t>(kNoRow));
    return static_cast<uint32_t>(values_.size());
  }

  /// Continues a robin-hood displacement chain. On a kMaxDistance
  /// overflow the whole index is rebuilt (covering the in-flight row,
  /// whose column data is already committed).
  void InsertDisplaced(uint32_t row, uint8_t distance, size_t index) {
    const size_t mask = meta_.size() - 1;
    ++distance;
    while (true) {
      if (distance == kMaxDistance) {
        RebuildIndex(meta_.size() * 2);
        return;
      }
      const uint8_t slot = meta_[index];
      if (slot == 0) {
        meta_[index] = distance;
        rows_[index] = row;
        return;
      }
      if (slot < distance) {
        std::swap(rows_[index], row);
        std::swap(meta_[index], distance);
      }
      index = (index + 1) & mask;
      ++distance;
    }
  }

  /// Inserts with no equality checks (row ids are unique); returns false
  /// when the probe chain overflows kMaxDistance.
  bool InsertUniqueNoGrow(uint64_t hash, uint32_t row) {
    const size_t mask = meta_.size() - 1;
    size_t index = hash & mask;
    uint8_t distance = 1;
    while (true) {
      if (distance == kMaxDistance) {
        return false;
      }
      const uint8_t slot = meta_[index];
      if (slot == 0) {
        meta_[index] = distance;
        rows_[index] = row;
        return true;
      }
      if (slot < distance) {
        std::swap(rows_[index], row);
        std::swap(meta_[index], distance);
      }
      index = (index + 1) & mask;
      ++distance;
    }
  }

  /// Rebuilds the row-id index at `new_capacity` slots from the committed
  /// rows, batch-recomputing their hashes column-wise. Doubles further on
  /// (astronomically unlikely) probe-chain overflow.
  void RebuildIndex(size_t new_capacity) {
    ComputeAllRowHashes(&hash_rebuild_scratch_);
    while (true) {
      meta_.assign(new_capacity, 0);
      rows_.assign(new_capacity, 0);
      bool ok = true;
      const size_t n = size();
      for (size_t row = 0; row < n && ok; ++row) {
        ok = InsertUniqueNoGrow(hash_rebuild_scratch_[row],
                                static_cast<uint32_t>(row));
      }
      if (ok) {
        return;
      }
      new_capacity *= 2;
    }
  }

  /// One-field wrapper so `values_` never becomes the bit-packed
  /// std::vector<bool> specialization (whose operator[] returns a proxy,
  /// breaking the K* slot contract) when K is bool (BoolMonoid).
  struct Slot {
    K value;
  };

  std::vector<std::vector<Value>> columns_;  // One per schema position.
  std::vector<Slot> values_;                 // Annotation of each row.
  std::vector<uint8_t> meta_;   // 0 = empty, else probe distance + 1.
  std::vector<uint32_t> rows_;  // Row id per occupied slot; ∥ meta_.
  // Per-row hash scratch for the batch passes; mutable so const sources
  // of ProjectDropInto/JoinUnionInto reuse their buffer across steps.
  mutable std::vector<uint64_t> hash_scratch_;
  std::vector<uint64_t> hash_rebuild_scratch_;
};

}  // namespace hierarq

#endif  // HIERARQ_DATA_COLUMNAR_H_
