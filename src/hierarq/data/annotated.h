#ifndef HIERARQ_DATA_ANNOTATED_H_
#define HIERARQ_DATA_ANNOTATED_H_

/// \file annotated.h
/// \brief K-annotated relations and databases (paper §2, §5.3).
///
/// A K-annotated relation associates each fact with a value from a
/// 2-monoid's domain K. Facts whose annotation is the monoid zero are
/// simply *absent* — supports are what the algorithm stores and what
/// Lemma 6.6's size argument counts. Keys are tuples ordered by the
/// relation's schema, which is the atom's variable set in ascending VarId
/// order (atom term order, duplicate variables, and constants are resolved
/// once, when the base database is annotated).
///
/// `AnnotatedRelation` is a facade over two interchangeable storage
/// backends (data/storage.h), selected **at runtime** per relation: the
/// column-major `ColumnarStore` (data/columnar.h, the default) and the
/// std::unordered_map reference baseline. Both backends implement the
/// same narrow interface —
/// `Find` / `FindOrInsert` / `Merge` / `Erase` / `Reset` / `AssignFrom`
/// plus the Algorithm 1 bulk operations `ProjectDropInto` (Rule 1) and
/// `JoinUnionInto` (Rule 2) — and are proven interchangeable by the
/// cross-backend differential suite (tests/storage_differential_test.cpp).

#include <functional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarq/data/columnar.h"
#include "hierarq/data/database.h"
#include "hierarq/data/storage.h"
#include "hierarq/data/tuple.h"
#include "hierarq/query/query.h"
#include "hierarq/query/var_set.h"
#include "hierarq/util/logging.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Gives std::unordered_map the store surface `ColumnarStore` exposes, so
/// the baseline backend plugs into AnnotatedRelation's dispatch like the
/// columnar layout.
template <typename Key, typename Mapped, typename Hash>
class StdMapAdapter {
 public:
  using Map = std::unordered_map<Key, Mapped, Hash>;
  using const_iterator = typename Map::const_iterator;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }

  const Mapped* Find(const Key& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  std::pair<Mapped*, bool> FindOrInsert(const Key& key) {
    auto [it, inserted] = map_.try_emplace(key);
    return {&it->second, inserted};
  }

  void Set(const Key& key, Mapped value) { map_[key] = std::move(value); }

  bool Erase(const Key& key) { return map_.erase(key) > 0; }

  template <typename Combine>
  void Merge(const Key& key, Mapped value, Combine combine) {
    auto [slot, inserted] = FindOrInsert(key);
    if (inserted) {
      *slot = std::move(value);
    } else {
      *slot = combine(*slot, value);
    }
  }

  void Reserve(size_t count) { map_.reserve(count); }
  void Clear() { map_.clear(); }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [key, value] : map_) {
      fn(key, value);
    }
  }

 private:
  Map map_;
};

/// A relation annotated with values from K, keyed by tuples over `schema`,
/// stored in the backend named by `storage()`.
template <typename K>
class AnnotatedRelation {
 public:
  AnnotatedRelation() : AnnotatedRelation(VarSet{}) {}
  explicit AnnotatedRelation(VarSet schema,
                             StorageKind storage = kDefaultStorageKind)
      : schema_(std::move(schema)), storage_(storage) {
    ResetColumnarArity();
  }

  const VarSet& schema() const { return schema_; }
  StorageKind storage() const { return storage_; }

  /// |supp(R)| — the number of stored (non-zero) facts.
  size_t size() const {
    return Visit([](const auto& store) { return store.size(); });
  }
  bool empty() const { return size() == 0; }

  /// Sets the annotation of `key` (inserting or overwriting).
  void Set(const Tuple& key, K value) {
    HIERARQ_CHECK_EQ(key.size(), schema_.size());
    Visit([&](auto& store) { store.Set(key, std::move(value)); });
  }

  /// Returns the annotation of `key`, or nullptr when `key` is not in the
  /// support (i.e. its annotation is the monoid zero).
  const K* Find(const Tuple& key) const {
    return Visit([&](const auto& store) { return store.Find(key); });
  }

  bool Contains(const Tuple& key) const { return Find(key) != nullptr; }

  /// Finds the annotation of `key`, inserting a value-initialized slot when
  /// absent; the bool is true iff the slot was just inserted (the caller
  /// must then assign a real annotation). One probe sequence total on every
  /// backend.
  std::pair<K*, bool> FindOrInsert(const Tuple& key) {
    return Visit([&](auto& store) { return store.FindOrInsert(key); });
  }

  /// Inserts `value` at `key`, or combines it with the existing annotation
  /// via `combine(existing, value)`. Used by annotation (⊕-merging
  /// duplicate keys) and by Algorithm 1's Rule 1.
  template <typename Combine>
  void Merge(const Tuple& key, K value, Combine combine) {
    Visit([&](auto& store) { store.Merge(key, std::move(value), combine); });
  }

  /// Removes `key` from the support if present; true iff removed. The
  /// single-fact mutation of the incremental subsystem
  /// (incremental/incremental_view.h) — batch evaluation still drops
  /// whole relations via `Clear`.
  bool Erase(const Tuple& key) {
    HIERARQ_CHECK_EQ(key.size(), schema_.size());
    return Visit([&](auto& store) { return store.Erase(key); });
  }

  /// Pre-sizes the backend so `count` insertions proceed without
  /// rehashing.
  void Reserve(size_t count) {
    Visit([&](auto& store) { store.Reserve(count); });
  }

  /// Releases all entries (frees intermediate relations eagerly). The
  /// backend keeps its buffers, so a relation reused across evaluations
  /// (core/evaluator.h) reaches steady state allocation-free.
  void Clear() {
    Visit([](auto& store) { store.Clear(); });
  }

  /// Switches the storage backend, dropping all entries when the kind
  /// actually changes (entries never migrate implicitly — callers switch
  /// before filling).
  void SetStorage(StorageKind storage) {
    if (storage_ == storage) {
      return;
    }
    Clear();
    storage_ = storage;
    ResetColumnarArity();
  }

  /// Re-targets this relation at `schema`, dropping all entries but
  /// keeping the backend's buffers — the buffer-reuse entry point.
  void Reset(const VarSet& schema) {
    schema_ = schema;
    if (storage_ == StorageKind::kColumnar) {
      ResetColumnarArity();
    } else {
      Clear();
    }
  }

  /// Reset with an explicit backend choice — how `Evaluator` applies its
  /// engine-level storage option to scratch relations.
  void Reset(const VarSet& schema, StorageKind storage) {
    SetStorage(storage);
    Reset(schema);
  }

  /// Replaces this relation's contents with a copy of `other`'s entries,
  /// re-labelled with `schema` (same arity as `other`'s schema), adopting
  /// `other`'s storage backend. This is the replay side of shared
  /// annotation (service/eval_service.h): one annotated base relation
  /// serves every query atom with the same annotation signature, and each
  /// replay copies it out under its own query's variable names. Copying
  /// the backend wholesale is a flat memcpy-like assignment — no per-entry
  /// rehash — where re-annotating would re-match and re-hash every base
  /// tuple.
  void AssignFrom(const AnnotatedRelation& other, const VarSet& schema) {
    HIERARQ_CHECK_EQ(schema.size(), other.schema_.size());
    schema_ = schema;
    if (storage_ != other.storage_) {
      Clear();  // Drop the outgoing backend's entries before switching.
      storage_ = other.storage_;
    }
    other.Visit([&](const auto& store) {
      StoreOf<std::remove_cvref_t<decltype(store)>>() = store;
    });
  }

  /// Move flavour of `AssignFrom`: steals `other`'s backend wholesale
  /// (leaving it empty) instead of copying every entry. The zero-copy
  /// replay path of the service layer — when a shared annotation-pool
  /// entry serves exactly one query in a batch group, the worker adopts it
  /// instead of duplicating it (see EvalService).
  void AdoptFrom(AnnotatedRelation&& other, const VarSet& schema) {
    HIERARQ_CHECK_EQ(schema.size(), other.schema_.size());
    *this = std::move(other);
    schema_ = schema;
  }

  /// Visits every stored fact as (key, annotation). Visit order is
  /// backend-defined (bucket order for the baseline, insertion order for
  /// columnar) — callers must not rely on it beyond "each fact exactly
  /// once".
  template <typename Fn>
  void ForEach(Fn fn) const {
    Visit([&](const auto& store) { store.ForEach(fn); });
  }

  /// Algorithm 1 Rule 1: ⊕-projects schema position `drop_pos` out of
  /// this relation into `out` (already Reset to the surviving schema).
  /// Columnar-to-columnar runs the layout-aware native (only surviving
  /// columns are read); any other backend pairing takes the generic
  /// iterate-and-merge path.
  template <typename Plus>
  void ProjectDropInto(size_t drop_pos, Plus plus,
                       AnnotatedRelation* out) const {
    HIERARQ_CHECK_LT(drop_pos, schema_.size());
    HIERARQ_CHECK_EQ(out->schema_.size() + 1, schema_.size());
    if (storage_ == StorageKind::kColumnar &&
        out->storage_ == StorageKind::kColumnar) {
      columnar_.ProjectDropInto(drop_pos, plus, &out->columnar_);
      return;
    }
    out->Reserve(size());
    Tuple projected;
    ForEach([&](const Tuple& key, const K& value) {
      projected.clear();
      for (size_t i = 0; i < key.size(); ++i) {
        if (i != drop_pos) {
          projected.push_back(key[i]);
        }
      }
      auto [slot, inserted] = out->FindOrInsert(projected);
      if (inserted) {
        *slot = value;
      } else {
        *slot = plus(*slot, value);
      }
    });
  }

  /// Algorithm 1 Rule 2: out(x) = left(x) ⊗ right(x) over the *union* of
  /// supports. A 2-monoid guarantees only 0 ⊗ 0 = 0 (Definition 5.6), not
  /// annihilation, so one-sided facts contribute `times(value, zero)` /
  /// `times(zero, value)`; only absent-absent pairs are skipped
  /// (Lemma 6.6). All-columnar operands run the native with compare-free
  /// result indexing; otherwise the generic union loop runs.
  template <typename Times>
  static void JoinUnionInto(const AnnotatedRelation& left,
                            const AnnotatedRelation& right, Times times,
                            const K& zero, AnnotatedRelation* out) {
    HIERARQ_CHECK(left.schema_ == right.schema_)
        << "Rule 2 requires equal schemas";
    HIERARQ_CHECK(out->schema_ == left.schema_);
    if (left.storage_ == StorageKind::kColumnar &&
        right.storage_ == StorageKind::kColumnar &&
        out->storage_ == StorageKind::kColumnar) {
      ColumnarStore<K>::JoinUnionInto(left.columnar_, right.columnar_, times,
                                      zero, &out->columnar_);
      return;
    }
    out->Reserve(left.size() + right.size());  // Lemma 6.6 bound.
    left.ForEach([&](const Tuple& key, const K& value) {
      const K* other = right.Find(key);
      out->Set(key, times(value, other != nullptr ? *other : zero));
    });
    right.ForEach([&](const Tuple& key, const K& value) {
      // Keys shared with the left leg are already final; the combined
      // find-or-insert detects them in the same probe sequence an insert
      // would need.
      auto [slot, inserted] = out->FindOrInsert(key);
      if (inserted) {
        *slot = times(zero, value);
      }
    });
  }

 private:
  using BaselineStore = StdMapAdapter<Tuple, K, TupleHash>;

  /// Applies `fn` to the active backend. The single dispatch point: a new
  /// StorageKind that misses a case here dies loudly on first use instead
  /// of silently returning empty results.
  template <typename Fn>
  decltype(auto) Visit(Fn fn) {
    switch (storage_) {
      case StorageKind::kBaseline:
        return fn(baseline_);
      case StorageKind::kColumnar:
        return fn(columnar_);
    }
    HIERARQ_CHECK(false) << "unhandled StorageKind "
                         << static_cast<int>(storage_);
    return fn(columnar_);  // Unreachable; satisfies the return type.
  }
  template <typename Fn>
  decltype(auto) Visit(Fn fn) const {
    switch (storage_) {
      case StorageKind::kBaseline:
        return fn(baseline_);
      case StorageKind::kColumnar:
        return fn(columnar_);
    }
    HIERARQ_CHECK(false) << "unhandled StorageKind "
                         << static_cast<int>(storage_);
    return fn(columnar_);  // Unreachable; satisfies the return type.
  }

  /// The member of the given backend type — lets AssignFrom copy the
  /// source's active store into the matching slot generically.
  template <typename Store>
  Store& StoreOf() {
    if constexpr (std::is_same_v<Store, BaselineStore>) {
      return baseline_;
    } else {
      static_assert(std::is_same_v<Store, ColumnarStore<K>>);
      return columnar_;
    }
  }

  /// The columnar layout is arity-typed: (re)target it at the current
  /// schema width whenever it becomes (or stays) the active backend.
  void ResetColumnarArity() {
    if (storage_ == StorageKind::kColumnar) {
      columnar_.Reset(schema_.size());
    }
  }

  VarSet schema_;
  StorageKind storage_ = kDefaultStorageKind;
  // Exactly one backend is active (named by storage_); the other stays
  // empty. Keeping both as members makes backend switches and AssignFrom
  // adoption trivial at the cost of an empty shell per relation —
  // relations are few (2x query atoms), so this is noise.
  BaselineStore baseline_;
  ColumnarStore<K> columnar_;
};

/// A K-annotated database instance for a query: one annotated relation per
/// query atom, indexed by atom position.
template <typename K>
struct AnnotatedDatabase {
  std::vector<AnnotatedRelation<K>> relations;

  /// |D| in the sense of Definition 6.5: the sum of relation supports.
  size_t TotalSupport() const {
    size_t total = 0;
    for (const auto& rel : relations) {
      total += rel.size();
    }
    return total;
  }
};

/// Annotates one atom's relation into `out` (whose schema must already be
/// the atom's variable set). Each tuple of `relation` is matched against
/// the atom pattern: constant terms must be equal and repeated variables
/// must bind consistently; matching tuples are projected onto the atom's
/// variable set (ascending VarId order) to form the key. Non-matching
/// tuples are skipped — they can never contribute a satisfying assignment.
///
/// Duplicate keys — e.g. literally duplicated facts in a bag of tuples —
/// are combined with `combine(existing, fresh)`; callers evaluating over a
/// 2-monoid pass ⊕ so duplicates merge instead of aborting.
template <typename K, typename Combine>
void AnnotateAtom(const Atom& atom, const Relation& relation,
                  const std::function<K(const Fact&)>& annotator,
                  Combine combine, AnnotatedRelation<K>* out) {
  HIERARQ_CHECK(out->schema() == atom.vars());
  // Resolve each schema variable's occurrence positions once — the tuple
  // loop below runs |relation| times and must not allocate per tuple.
  std::vector<std::vector<size_t>> var_positions;
  var_positions.reserve(atom.vars().size());
  for (VarId v : atom.vars()) {
    var_positions.push_back(atom.PositionsOf(v));
  }
  // One Fact reused across tuples: the relation-name string is built once,
  // only the tuple payload changes per iteration.
  Fact fact{atom.relation(), Tuple{}};
  for (const Tuple& tuple : relation.tuples()) {
    if (tuple.size() != atom.arity()) {
      continue;  // Arity mismatch: cannot match the atom.
    }
    // Match the tuple against the atom pattern.
    bool matches = true;
    for (size_t i = 0; i < atom.terms().size() && matches; ++i) {
      const Term& term = atom.terms()[i];
      if (term.is_constant()) {
        matches = term.constant() == tuple[i];
      }
    }
    // Repeated variables must bind to equal values.
    if (matches) {
      for (const std::vector<size_t>& positions : var_positions) {
        for (size_t i = 1; i < positions.size() && matches; ++i) {
          matches = tuple[positions[i]] == tuple[positions[0]];
        }
        if (!matches) {
          break;
        }
      }
    }
    if (!matches) {
      continue;
    }
    // Project onto the schema (ascending VarId order).
    Tuple key;
    key.reserve(var_positions.size());
    for (const std::vector<size_t>& positions : var_positions) {
      key.push_back(tuple[positions.front()]);
    }
    fact.tuple = tuple;
    out->Merge(key, annotator(fact), combine);
  }
}

/// Builds the K-annotated database for `query` from the facts of `facts`,
/// annotating each fact f with `annotator(f)` and ⊕-combining duplicate
/// keys with `combine`. Relations are stored in the `storage` backend.
///
/// Atoms whose relation is absent from `facts` produce empty (all-zero)
/// annotated relations, which is the correct semantics.
template <typename K, typename Combine>
AnnotatedDatabase<K> AnnotateForQuery(
    const ConjunctiveQuery& query, const Database& facts,
    const std::function<K(const Fact&)>& annotator, Combine combine,
    StorageKind storage = kDefaultStorageKind) {
  AnnotatedDatabase<K> out;
  out.relations.reserve(query.num_atoms());
  for (const Atom& atom : query.atoms()) {
    AnnotatedRelation<K> annotated(atom.vars(), storage);
    const Relation* relation = facts.FindRelation(atom.relation());
    if (relation != nullptr) {
      annotated.Reserve(relation->size());
      AnnotateAtom(atom, *relation, annotator, combine, &annotated);
    }
    out.relations.push_back(std::move(annotated));
  }
  return out;
}

/// AnnotateForQuery without an explicit combiner: duplicate keys keep the
/// latest annotation. Set databases cannot produce duplicate keys (atom
/// matching plus projection is injective on a duplicate-free relation), so
/// the combiner only matters for bag-like inputs — monoid-aware callers
/// (core/algorithm1.h, core/evaluator.h) pass ⊕ explicitly.
template <typename K>
AnnotatedDatabase<K> AnnotateForQuery(
    const ConjunctiveQuery& query, const Database& facts,
    const std::function<K(const Fact&)>& annotator,
    StorageKind storage = kDefaultStorageKind) {
  return AnnotateForQuery<K>(
      query, facts, annotator,
      [](const K&, const K& fresh) { return fresh; }, storage);
}

}  // namespace hierarq

#endif  // HIERARQ_DATA_ANNOTATED_H_
