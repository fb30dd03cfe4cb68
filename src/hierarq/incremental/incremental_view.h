#ifndef HIERARQ_INCREMENTAL_INCREMENTAL_VIEW_H_
#define HIERARQ_INCREMENTAL_INCREMENTAL_VIEW_H_

/// \file incremental_view.h
/// \brief `IncrementalView` — one query's entire Algorithm 1 state kept
/// materialized, maintained under single-fact deltas.
///
/// Batch Algorithm 1 (core/algorithm1.h) computes each intermediate
/// relation, feeds it to the next step, and drops it. The incremental view
/// keeps the whole derivation — the annotated base relation of every atom
/// *plus* the result relation of every `EliminationStep` — alive as a view
/// tree, and maintains it under a `DeltaBatch` by propagating the change
/// front up the elimination order:
///
///   * a base op touches at most one key per base relation (fact-to-key
///     projection is injective on a set database);
///   * Rule 1 (⊕-project Y out of R): a changed source key s moves exactly
///     one group aggregate, the one at s∖{Y}. With a ⊕-inverse
///     (incremental/monoid_traits.h) the aggregate updates in O(1) as
///     out ⊕ new ⊖ old, guarded by an exact per-key contributor count so
///     emptied groups leave the support; without one the view re-folds the
///     affected group from the materialized source relation, using a
///     per-step group index (projected key → dropped values present);
///   * Rule 2 (R1 ⊗ R2 over equal schemas): per-key local — a changed key
///     re-reads both operands and rewrites (or erases) that key only.
///
/// Each affected key is processed once per batch (ops are deduplicated
/// into per-relation change fronts first), so a batch of b single-fact
/// ops costs O(b · depth) monoid operations plus O(group) per re-folded
/// group — against O(|D|) for a from-scratch replay (Theorem 6.7). This
/// is the constant/sublinear single-tuple update regime Kara, Nikolic,
/// Olteanu & Zhang establish for hierarchical queries ("Trade-offs in
/// Static and Dynamic Evaluation of Hierarchical Queries").
///
/// Supports stay *exactly* equal to what a from-scratch run would build
/// (contributor counts and group indexes track presence, not values, so
/// zero-valued annotations stay in the support just as AnnotateAtom keeps
/// them), which the differential suite (tests/incremental_test.cpp)
/// checks alongside the results.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/storage.h"
#include "hierarq/incremental/delta.h"
#include "hierarq/incremental/monoid_traits.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"
#include "hierarq/util/logging.h"

namespace hierarq {

namespace incremental_internal {

/// Global incremental-maintenance metrics, summed across every view in the
/// process. Resolved once into statics so each Apply pays four relaxed
/// adds, not four registry lookups.
inline obs::Counter* ViewAppliesCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("incremental.view_applies");
  return counter;
}

inline obs::Counter* InverseUpdatesCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("incremental.inverse_updates");
  return counter;
}

inline obs::Counter* GroupRefoldsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("incremental.group_refolds");
  return counter;
}

inline obs::Histogram* ViewApplyNsHistogram() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram("incremental.view_apply_ns");
  return histogram;
}

inline obs::Counter* BatchesCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("incremental.batches");
  return counter;
}

inline obs::Counter* OpsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("incremental.ops");
  return counter;
}

}  // namespace incremental_internal

template <TwoMonoid M>
class IncrementalView {
 public:
  using K = typename M::value_type;
  /// Annotation of a present fact given its current weight
  /// (VersionedDatabase::WeightOf); absent facts are never annotated.
  using Annotator = std::function<K(const Fact&, double)>;

  struct Stats {
    size_t batches = 0;          ///< Apply calls.
    size_t ops_seen = 0;         ///< Delta ops consumed (incl. irrelevant).
    size_t keys_touched = 0;     ///< Distinct (relation, key) changes moved.
    size_t group_refolds = 0;    ///< Rule 1 fallback re-aggregations.
    size_t inverse_updates = 0;  ///< Rule 1 O(1) ⊖-updates (invertible ⊕).
    uint64_t apply_ns = 0;       ///< Total wall time spent inside Apply.
  };

  IncrementalView(ConjunctiveQuery query, EliminationPlan plan, M monoid,
                  Annotator annotator, StorageKind storage)
      : query_(std::move(query)),
        plan_(std::move(plan)),
        monoid_(std::move(monoid)),
        annotator_(std::move(annotator)),
        storage_(storage) {
    relations_.resize(plan_.num_atoms());
    deltas_.resize(plan_.num_atoms());
    if constexpr (Traits::kPlusInvertible) {
      counts_.resize(plan_.steps().size());
    } else {
      groups_.resize(plan_.steps().size());
    }
    // Resolve each base atom's matching machinery once (see AnnotateAtom):
    // per-variable occurrence positions, and the relation → atom map
    // (unique by self-join-freeness).
    var_positions_.resize(plan_.num_base_atoms());
    for (size_t a = 0; a < plan_.num_base_atoms(); ++a) {
      const Atom& atom = query_.atoms()[a];
      var_positions_[a].reserve(atom.vars().size());
      for (VarId v : atom.vars()) {
        var_positions_[a].push_back(atom.PositionsOf(v));
      }
      atom_by_relation_.emplace(atom.relation(), a);
    }
  }

  const ConjunctiveQuery& query() const { return query_; }
  const EliminationPlan& plan() const { return plan_; }
  const M& monoid() const { return monoid_; }
  StorageKind storage() const { return storage_; }
  const Stats& stats() const { return stats_; }

  /// The maintained Algorithm 1 result as of the last Materialize/Apply.
  const K& result() const { return result_; }

  /// |supp| summed over every materialized relation (base + intermediate):
  /// the memory footprint of the view tree in facts.
  size_t TotalSupport() const {
    size_t total = 0;
    for (const AnnotatedRelation<K>& rel : relations_) {
      total += rel.size();
    }
    return total;
  }

  /// Rebuilds the whole view tree from `db` (Algorithm 1, keeping every
  /// intermediate) and the Rule 1 bookkeeping. Called by Attach; also the
  /// resync path for a reader that fell off the delta log.
  void Materialize(const VersionedDatabase& db) {
    const auto plus = [this](const K& a, const K& b) {
      return monoid_.Plus(a, b);
    };
    const std::function<K(const Fact&)> annotate = [&](const Fact& fact) {
      return annotator_(fact, db.WeightOf(fact));
    };
    for (size_t a = 0; a < plan_.num_base_atoms(); ++a) {
      const Atom& atom = query_.atoms()[a];
      relations_[a].Reset(atom.vars(), storage_);
      const Relation* relation = db.facts().FindRelation(atom.relation());
      if (relation != nullptr) {
        relations_[a].Reserve(relation->size());
        AnnotateAtom<K>(atom, *relation, annotate, plus, &relations_[a]);
      }
    }
    obs::Span materialize_span("view.materialize", "incremental");
    // The batch engine's step loop (core/algorithm1.h), so the two engines
    // cannot drift in step coverage; every step keeps the view's
    // configured backend.
    RunEliminationSteps(plan_, monoid_, relations_, /*keep_inputs=*/true);
    // Each Rule 1 step's source is still materialized.
    for (size_t si = 0; si < plan_.steps().size(); ++si) {
      const EliminationStep& step = plan_.steps()[si];
      if (step.rule == EliminationRule::kProjectVariable) {
        RebuildRule1Bookkeeping(si, step, relations_[step.source_atom]);
      }
    }
    RefreshResult();
  }

  /// Applies one batch the *database has already applied* (the evaluator
  /// sequences VersionedDatabase::Apply first) and returns the new result.
  /// Ops for relations or patterns the query cannot match are skipped.
  const K& Apply(const DeltaBatch& batch) {
    const uint64_t start_ns = obs::Tracer::NowNs();
    obs::Span apply_span("view.apply", "incremental");
    const size_t refolds_before = stats_.group_refolds;
    const size_t inverses_before = stats_.inverse_updates;
    ++stats_.batches;
    stats_.ops_seen += batch.size();
    for (DeltaMap& front : deltas_) {
      front.clear();
    }

    // Phase 1: move the base relations, capturing each touched key's
    // pre-batch state exactly once — the change front the steps consume.
    Tuple key;
    for (const DeltaOp& op : batch.ops) {
      auto found = atom_by_relation_.find(op.fact.relation);
      if (found == atom_by_relation_.end()) {
        continue;  // Relation not in this query.
      }
      const size_t a = found->second;
      if (!MatchFactToKey(a, op.fact, &key)) {
        continue;  // Fact cannot satisfy the atom pattern.
      }
      AnnotatedRelation<K>& rel = relations_[a];
      RecordOld(a, key, rel);
      switch (op.kind) {
        case DeltaKind::kInsert:
          rel.Set(key, annotator_(op.fact, op.weight));
          break;
        case DeltaKind::kSetAnnotation:
          // Normalized like VersionedDatabase::Apply: absent facts have
          // no annotation to set.
          if (rel.Contains(key)) {
            rel.Set(key, annotator_(op.fact, op.weight));
          }
          break;
        case DeltaKind::kDelete:
          rel.Erase(key);
          break;
      }
    }

    // Phase 2: propagate the fronts up the elimination order. A step's
    // inputs are final when it runs (plan ids are minted in step order).
    for (size_t si = 0; si < plan_.steps().size(); ++si) {
      const EliminationStep& step = plan_.steps()[si];
      if (step.rule == EliminationRule::kProjectVariable) {
        ApplyRule1(si, step);
      } else {
        ApplyRule2(step);
      }
    }

    for (const DeltaMap& front : deltas_) {
      stats_.keys_touched += front.size();
    }
    RefreshResult();

    const uint64_t elapsed_ns = obs::Tracer::NowNs() - start_ns;
    stats_.apply_ns += elapsed_ns;
    incremental_internal::ViewAppliesCounter()->Add();
    incremental_internal::InverseUpdatesCounter()->Add(
        stats_.inverse_updates - inverses_before);
    incremental_internal::GroupRefoldsCounter()->Add(stats_.group_refolds -
                                                     refolds_before);
    incremental_internal::ViewApplyNsHistogram()->Observe(elapsed_ns);
    return result_;
  }

 private:
  using Traits = IncrementalMonoidTraits<M>;

  /// Pre-batch state of one key (present + annotation, or absent).
  struct OldState {
    K value{};
    bool present = false;
  };
  using DeltaMap = std::unordered_map<Tuple, OldState, TupleHash>;

  /// Matches `fact` against base atom `a` (constants, repeated variables)
  /// and projects it onto the atom's variable-set key. Exactly
  /// AnnotateAtom's per-tuple logic, for one fact.
  bool MatchFactToKey(size_t a, const Fact& fact, Tuple* key) const {
    const Atom& atom = query_.atoms()[a];
    const Tuple& tuple = fact.tuple;
    if (tuple.size() != atom.arity()) {
      return false;
    }
    for (size_t i = 0; i < atom.terms().size(); ++i) {
      const Term& term = atom.terms()[i];
      if (term.is_constant() && term.constant() != tuple[i]) {
        return false;
      }
    }
    for (const std::vector<size_t>& positions : var_positions_[a]) {
      for (size_t i = 1; i < positions.size(); ++i) {
        if (tuple[positions[i]] != tuple[positions[0]]) {
          return false;
        }
      }
    }
    key->clear();
    for (const std::vector<size_t>& positions : var_positions_[a]) {
      key->push_back(tuple[positions.front()]);
    }
    return true;
  }

  /// Records `key`'s pre-batch state in atom `a`'s change front (first
  /// touch only — later touches in the same batch keep the original).
  /// Returns true iff this was the first touch.
  bool RecordOld(size_t a, const Tuple& key, const AnnotatedRelation<K>& rel) {
    auto [it, inserted] = deltas_[a].try_emplace(key);
    if (inserted) {
      if (const K* value = rel.Find(key)) {
        it->second.value = *value;
        it->second.present = true;
      }
    }
    return inserted;
  }

  /// Rebuilds step `si`'s Rule 1 bookkeeping (contributor counts or group
  /// index) from its materialized source relation.
  void RebuildRule1Bookkeeping(size_t si, const EliminationStep& step,
                               const AnnotatedRelation<K>& source) {
    const size_t drop = step.drop_pos;
    Tuple projected;
    if constexpr (Traits::kPlusInvertible) {
      auto& counts = counts_[si];
      counts.clear();
      source.ForEach([&](const Tuple& skey, const K&) {
        ProjectInto(skey, drop, &projected);
        ++counts[projected];
      });
    } else {
      auto& groups = groups_[si];
      groups.clear();
      source.ForEach([&](const Tuple& skey, const K&) {
        ProjectInto(skey, drop, &projected);
        groups[projected].push_back(skey[drop]);
      });
    }
  }

  static void ProjectInto(const Tuple& skey, size_t drop, Tuple* out) {
    out->clear();
    for (size_t i = 0; i < skey.size(); ++i) {
      if (i != drop) {
        out->push_back(skey[i]);
      }
    }
  }

  void ApplyRule1(size_t si, const EliminationStep& step) {
    const DeltaMap& front = deltas_[step.source_atom];
    if (front.empty()) {
      return;
    }
    const AnnotatedRelation<K>& source = relations_[step.source_atom];
    AnnotatedRelation<K>& out = relations_[step.result_atom];
    const size_t drop = step.drop_pos;
    Tuple projected;

    if constexpr (Traits::kPlusInvertible) {
      // O(1) per changed key: each front entry's contribution delta is
      // self-contained (out ⊕ new ⊖ old), so entries of the same group
      // may apply in any order.
      for (const auto& [skey, old] : front) {
        ProjectInto(skey, drop, &projected);
        const K* now = source.Find(skey);
        const bool was = old.present;
        const bool is = now != nullptr;
        RecordOld(step.result_atom, projected, out);
        auto [cit, fresh] = counts_[si].try_emplace(projected, 0);
        (void)fresh;
        if (was && !is) {
          --cit->second;
        } else if (!was && is) {
          ++cit->second;
        }
        if (cit->second == 0) {
          // Group emptied (or never existed): the key leaves the support,
          // exactly as a from-scratch aggregation would omit it.
          counts_[si].erase(cit);
          out.Erase(projected);
          continue;
        }
        const K* current = out.Find(projected);
        K acc = monoid_.Plus(current != nullptr ? *current : monoid_.Zero(),
                             is ? *now : monoid_.Zero());
        acc = Traits::SubtractPlus(monoid_, acc,
                                   was ? old.value : monoid_.Zero());
        ++stats_.inverse_updates;
        out.Set(projected, std::move(acc));
      }
      return;
    }

    // Non-invertible fallback, two passes. Refolds read the source for
    // *every* group member, and the source already reflects the whole
    // batch — so all membership bookkeeping must finish before the first
    // refold (a one-pass merge would fold members a later front entry is
    // about to remove).
    auto& groups = groups_[si];
    std::vector<Tuple> affected;  // Deduped: first-touch keys only.
    affected.reserve(front.size());
    for (const auto& [skey, old] : front) {
      ProjectInto(skey, drop, &projected);
      const K* now = source.Find(skey);
      const bool was = old.present;
      const bool is = now != nullptr;
      if (RecordOld(step.result_atom, projected, out)) {
        affected.push_back(projected);
      }
      if (was && !is) {
        auto git = groups.find(projected);
        HIERARQ_CHECK(git != groups.end());
        std::vector<Value>& members = git->second;
        for (size_t i = 0; i < members.size(); ++i) {
          if (members[i] == skey[drop]) {
            members[i] = members.back();
            members.pop_back();
            break;
          }
        }
      } else if (!was && is) {
        groups[projected].push_back(skey[drop]);
      }
    }
    Tuple refold_key;
    for (const Tuple& key : affected) {
      auto git = groups.find(key);
      if (git == groups.end() || git->second.empty()) {
        if (git != groups.end()) {
          groups.erase(git);  // Emptied this batch.
        }
        out.Erase(key);
        continue;
      }
      // Rebuild the full source key: `key` with a hole at the dropped
      // position, filled per member.
      refold_key.clear();
      for (size_t i = 0, k = 0; i <= key.size(); ++i) {
        refold_key.push_back(i == drop ? Value{0} : key[k++]);
      }
      K acc = monoid_.Zero();
      for (Value member : git->second) {
        refold_key[drop] = member;
        const K* value = source.Find(refold_key);
        HIERARQ_CHECK(value != nullptr);
        acc = monoid_.Plus(acc, *value);
      }
      ++stats_.group_refolds;
      out.Set(key, std::move(acc));
    }
  }

  void ApplyRule2(const EliminationStep& step) {
    const DeltaMap& front_left = deltas_[step.left_atom];
    const DeltaMap& front_right = deltas_[step.right_atom];
    if (front_left.empty() && front_right.empty()) {
      return;
    }
    const AnnotatedRelation<K>& left = relations_[step.left_atom];
    const AnnotatedRelation<K>& right = relations_[step.right_atom];
    AnnotatedRelation<K>& out = relations_[step.result_atom];
    const auto touch = [&](const Tuple& key) {
      RecordOld(step.result_atom, key, out);
      const K* lv = left.Find(key);
      const K* rv = right.Find(key);
      if (lv == nullptr && rv == nullptr) {
        out.Erase(key);  // Left the union of supports (Lemma 6.6).
        return;
      }
      out.Set(key, monoid_.Times(lv != nullptr ? *lv : monoid_.Zero(),
                                 rv != nullptr ? *rv : monoid_.Zero()));
    };
    for (const auto& [key, old] : front_left) {
      touch(key);
    }
    for (const auto& [key, old] : front_right) {
      if (front_left.find(key) == front_left.end()) {
        touch(key);
      }
    }
  }

  void RefreshResult() {
    const K* value = relations_[plan_.final_atom()].Find(Tuple{});
    result_ = value != nullptr ? *value : monoid_.Zero();
  }

  ConjunctiveQuery query_;
  EliminationPlan plan_;
  M monoid_;
  Annotator annotator_;
  StorageKind storage_;

  /// The view tree: one materialized relation per plan atom (base atoms
  /// in query order, then one per step result), never cleared.
  std::vector<AnnotatedRelation<K>> relations_;
  /// Per-base-atom variable occurrence positions (AnnotateAtom's hoist).
  std::vector<std::vector<std::vector<size_t>>> var_positions_;
  std::unordered_map<std::string, size_t> atom_by_relation_;
  /// Per-step Rule 1 contributor counts (invertible monoids): projected
  /// key → |group|; an entry exists iff the count is positive.
  std::vector<std::unordered_map<Tuple, size_t, TupleHash>> counts_;
  /// Per-step Rule 1 group index (fallback monoids): projected key → the
  /// dropped-position values present in the source (each exactly once —
  /// keys sharing a projection differ at the dropped position).
  std::vector<std::unordered_map<Tuple, std::vector<Value>, TupleHash>>
      groups_;
  /// Per-atom change fronts of the batch in flight (reused scratch).
  std::vector<DeltaMap> deltas_;
  K result_{};
  Stats stats_;
};

}  // namespace hierarq

#endif  // HIERARQ_INCREMENTAL_INCREMENTAL_VIEW_H_
