#ifndef HIERARQ_CORE_EVALUATOR_H_
#define HIERARQ_CORE_EVALUATOR_H_

/// \file evaluator.h
/// \brief `Evaluator` — the amortizing front door to Algorithm 1.
///
/// Algorithm 1 splits into a query-only phase (building the
/// `EliminationPlan`, Proposition 5.1) and a data phase (annotating and
/// replaying the plan). Workloads that evaluate the *same* query against
/// *many* databases — Shapley values run Algorithm 1 O(n²) times on
/// perturbed databases, the CLI and servers answer the same query per
/// request — were paying the plan build and fresh hash-table allocations
/// on every call. `Evaluator` amortizes both:
///
///   * plans are cached per canonical query text, so the second and later
///     evaluations of a query skip `EliminationPlan::Build` entirely;
///   * the per-monoid scratch vector of annotated relations is kept
///     between runs; `AnnotatedRelation::Reset` drops entries but keeps
///     each table's slot array, so steady-state evaluation allocates
///     nothing but the tuples themselves.
///
/// The data phase splits once more for multi-query batching (the service
/// layer, service/eval_service.h): `AnnotateForQuerySet` annotates the
/// base relations once for a whole set of queries, and `ReplayPlan`
/// replays one query's plan against those shared annotations. An Evaluator
/// is single-threaded by design (one per worker); plans are immutable
/// after build, so workers share a thread-safe `PlanProvider`
/// (service/shared_plan_cache.h) while each keeps private scratch.

#include <memory>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/database.h"
#include "hierarq/data/storage.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Where an evaluator gets its compiled plans. `Evaluator` itself
/// implements it with a private single-threaded cache; `SharedPlanCache`
/// (service/shared_plan_cache.h) implements it thread-safely so N workers
/// can stand behind one build-once cache.
class PlanProvider {
 public:
  virtual ~PlanProvider() = default;

  /// Returns the plan for `query`, building it on first sight. The pointer
  /// stays valid for the provider's lifetime. Fails with kNotHierarchical
  /// exactly as EliminationPlan::Build does.
  virtual Result<const EliminationPlan*> GetPlan(
      const ConjunctiveQuery& query) = 0;
};

/// Canonical annotation signature of an atom: the relation name with each
/// term rendered as a constant or as its variable's rank in the atom's
/// (VarId-ascending) variable set — e.g. "R(v0,#7,v1,v0)". Two atoms with
/// equal signatures produce identical annotated relations over the same
/// annotated database, up to schema labels: the constant selections, the
/// repeated-variable positions, and the projection order (ascending VarId
/// = ascending rank) all coincide. This is the sharing key of
/// `AnnotateForQuerySet`.
std::string AtomAnnotationSignature(const Atom& atom);

/// A shared pool of base-relation annotations for a *set* of queries over
/// one database: the annotate-once half of the batching split. Entries are
/// keyed by `AtomAnnotationSignature`, so atoms that differ only in
/// variable names — R(A,B) in one query, R(X,Y) in another — share one
/// annotated relation; replay re-labels the schema per query
/// (`AnnotatedRelation::AssignFrom`).
template <typename K>
struct AnnotationPool {
  std::unordered_map<std::string, AnnotatedRelation<K>> by_signature;
  size_t scans = 0;   ///< Base-relation annotation passes performed.
  size_t reused = 0;  ///< Atom occurrences served by an existing pass.

  const AnnotatedRelation<K>* Find(const std::string& signature) const {
    auto it = by_signature.find(signature);
    return it == by_signature.end() ? nullptr : &it->second;
  }
};

/// Extends `pool` with the annotations `queries` need over `facts` that it
/// does not already hold, sharing work between atoms with equal
/// signatures: one scan (and one annotator call per matching tuple) per
/// distinct *missing* signature. Signatures already pooled — by an earlier
/// call against the same database snapshot, e.g. through the service
/// layer's generation-keyed annotation cache — are counted in
/// `pool->reused` and not re-scanned. Pool relations live in the `storage`
/// backend; replays adopt it via `AssignFrom`.
template <typename K, typename Combine>
void AnnotateForQuerySetInto(
    const std::vector<const ConjunctiveQuery*>& queries,
    const Database& facts, const std::function<K(const Fact&)>& annotator,
    Combine combine, StorageKind storage, AnnotationPool<K>* pool) {
  for (const ConjunctiveQuery* query : queries) {
    for (const Atom& atom : query->atoms()) {
      auto [it, inserted] =
          pool->by_signature.try_emplace(AtomAnnotationSignature(atom));
      if (!inserted) {
        ++pool->reused;
        continue;
      }
      ++pool->scans;
      AnnotatedRelation<K>& out = it->second;
      out.Reset(atom.vars(), storage);
      const Relation* relation = facts.FindRelation(atom.relation());
      if (relation != nullptr) {
        out.Reserve(relation->size());
        AnnotateAtom<K>(atom, *relation, annotator, combine, &out);
      }
    }
  }
}

/// Annotates the base relations needed by `queries` over `facts` into a
/// fresh pool (see AnnotateForQuerySetInto). The batch entry point of the
/// service layer; the per-query path (`Evaluator::Evaluate`) keeps its
/// direct annotation loop.
template <typename K, typename Combine>
AnnotationPool<K> AnnotateForQuerySet(
    const std::vector<const ConjunctiveQuery*>& queries,
    const Database& facts, const std::function<K(const Fact&)>& annotator,
    Combine combine, StorageKind storage = kDefaultStorageKind) {
  AnnotationPool<K> pool;
  AnnotateForQuerySetInto(queries, facts, annotator, combine, storage, &pool);
  return pool;
}

/// Resolves one shared base relation per atom of `query` from `pool`, in
/// atom order — the `bases` input of `Evaluator::ReplayPlan`. CHECKs that
/// the pool covers every atom. Callers resolve once per (query, pool)
/// pair so replays never rebuild signature strings.
template <typename K>
std::vector<const AnnotatedRelation<K>*> ResolveBases(
    const ConjunctiveQuery& query, const AnnotationPool<K>& pool) {
  std::vector<const AnnotatedRelation<K>*> bases;
  bases.reserve(query.num_atoms());
  for (const Atom& atom : query.atoms()) {
    const AnnotatedRelation<K>* shared =
        pool.Find(AtomAnnotationSignature(atom));
    HIERARQ_CHECK(shared != nullptr)
        << "annotation pool lacks " << AtomAnnotationSignature(atom);
    bases.push_back(shared);
  }
  return bases;
}

/// One base-relation input of a plan replay: the shared annotation to
/// read, plus — when the pool entry serves exactly one atom of one query
/// in the batch group — a mutable alias the replay may *move* from
/// instead of copying (`AnnotatedRelation::AdoptFrom`). The copy is the
/// service's main single-query overhead versus a bare `Evaluator`, and a
/// singleton entry has no other reader, so moving it is free sharing.
template <typename K>
struct ReplaySource {
  const AnnotatedRelation<K>* shared = nullptr;  ///< Always set.
  AnnotatedRelation<K>* movable = nullptr;  ///< Non-null iff exclusive.
};

/// The per-query replay inputs of a whole batch group, plus how many pool
/// entries were marked movable.
template <typename K>
struct ReplaySourceSet {
  std::vector<std::vector<ReplaySource<K>>> per_query;  ///< Query order.
  size_t movable = 0;  ///< Slots eligible for zero-copy adoption.
};

/// Resolves every query's replay sources from `pool` in one pass, marking
/// pool entries used by exactly one (query, atom) pair as movable when
/// `allow_moves` (the caller must guarantee the pool dies with the group
/// and is not shared beyond it — cached pools pass false). Workers then
/// adopt movable entries instead of copying; distinct map values are
/// touched by distinct workers, so the shared map needs no lock.
template <typename K>
ReplaySourceSet<K> ResolveReplaySources(
    const std::vector<const ConjunctiveQuery*>& queries,
    AnnotationPool<K>* pool, bool allow_moves) {
  ReplaySourceSet<K> out;
  out.per_query.resize(queries.size());
  std::unordered_map<AnnotatedRelation<K>*, size_t> uses;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<ReplaySource<K>>& sources = out.per_query[i];
    sources.reserve(queries[i]->num_atoms());
    for (const Atom& atom : queries[i]->atoms()) {
      const std::string signature = AtomAnnotationSignature(atom);
      auto it = pool->by_signature.find(signature);
      HIERARQ_CHECK(it != pool->by_signature.end())
          << "annotation pool lacks " << signature;
      ++uses[&it->second];
      sources.push_back(ReplaySource<K>{&it->second, nullptr});
    }
  }
  if (allow_moves) {
    for (std::vector<ReplaySource<K>>& sources : out.per_query) {
      for (ReplaySource<K>& source : sources) {
        AnnotatedRelation<K>* entry =
            const_cast<AnnotatedRelation<K>*>(source.shared);
        if (uses[entry] == 1) {
          source.movable = entry;
          ++out.movable;
        }
      }
    }
  }
  return out;
}

class Evaluator : public PlanProvider {
 public:
  /// Cache observability, used by tests and ops counters.
  struct Stats {
    size_t plans_built = 0;      ///< EliminationPlan::Build invocations.
    size_t plan_cache_hits = 0;  ///< Evaluations that reused a cached plan.
    size_t evaluations = 0;      ///< Successful Evaluate/ReplayPlan calls.
  };

  Evaluator() = default;

  /// An evaluator whose scratch relations live in the given storage
  /// backend (data/storage.h) — how the differential suites run the
  /// baseline reference and the bench emitters pick their rows.
  explicit Evaluator(StorageKind storage) : storage_(storage) {}

  /// An evaluator whose plans come from `plans` (non-owning; must outlive
  /// this evaluator) instead of the private cache — the per-worker
  /// configuration: N workers share one `SharedPlanCache` and keep private
  /// scratch. In this mode stats().plans_built / plan_cache_hits stay
  /// zero; the shared provider tracks them.
  explicit Evaluator(PlanProvider* plans,
                     StorageKind storage = kDefaultStorageKind)
      : shared_plans_(plans), storage_(storage) {}

  // The scratch tables and plan cache are identity, not value.
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Returns the cached plan for `query`, building (and caching) it on
  /// first sight. The pointer stays valid for the Evaluator's lifetime.
  /// Fails with kNotHierarchical exactly as EliminationPlan::Build does;
  /// failures are not cached (they are cheap to re-derive and callers
  /// usually stop at the first one).
  Result<const EliminationPlan*> GetPlan(
      const ConjunctiveQuery& query) override;

  /// Evaluates `query` over `facts` in the given 2-monoid: annotates each
  /// matching fact with `annotator(fact)` (duplicates ⊕-merge) and replays
  /// the cached plan. Equivalent to RunAlgorithm1OnQuery, minus the
  /// repeated plan builds and table allocations.
  template <TwoMonoid M>
  Result<typename M::value_type> Evaluate(
      const ConjunctiveQuery& query, const M& monoid, const Database& facts,
      const std::function<typename M::value_type(const Fact&)>& annotator) {
    using K = typename M::value_type;
    HIERARQ_ASSIGN_OR_RETURN(const EliminationPlan* plan, GetPlan(query));

    std::vector<AnnotatedRelation<K>>& relations = ScratchForPlan<K>(*plan);
    const auto plus = [&monoid](const K& a, const K& b) {
      return monoid.Plus(a, b);
    };
    for (size_t i = 0; i < plan->num_base_atoms(); ++i) {
      const Atom& atom = query.atoms()[i];
      relations[i].Reset(atom.vars(), storage_);
      const Relation* relation = facts.FindRelation(atom.relation());
      if (relation != nullptr) {
        relations[i].Reserve(relation->size());
        AnnotateAtom<K>(atom, *relation, annotator, plus, &relations[i]);
      }
    }

    ++stats_.evaluations;
    return Run(*plan, monoid, relations);
  }

  /// The replay-many half of the batching split: copies each base atom's
  /// shared annotation (one pre-resolved pointer per base atom, in atom
  /// order — e.g. looked up in an AnnotationPool once per group, on the
  /// caller thread, so workers never build signature strings) into this
  /// evaluator's scratch, re-labelled with this query's variables, and
  /// replays `plan`. The shared relations are only read, so concurrent
  /// replays against them are safe as long as each runs on its own
  /// Evaluator. Precondition: `plan` is the plan of `query`.
  template <TwoMonoid M>
  typename M::value_type ReplayPlan(
      const EliminationPlan& plan, const M& monoid,
      const ConjunctiveQuery& query,
      const std::vector<const AnnotatedRelation<typename M::value_type>*>&
          bases) {
    using K = typename M::value_type;
    HIERARQ_CHECK_EQ(bases.size(), plan.num_base_atoms());
    std::vector<AnnotatedRelation<K>>& relations = ScratchForPlan<K>(plan);
    for (size_t i = 0; i < plan.num_base_atoms(); ++i) {
      HIERARQ_CHECK(bases[i] != nullptr);
      relations[i].AssignFrom(*bases[i], query.atoms()[i].vars());
    }
    ++stats_.evaluations;
    return Run(plan, monoid, relations);
  }

  /// ReplayPlan over `ReplaySource`s: base relations marked movable are
  /// *adopted* into scratch (wholesale buffer steal, leaving the pool
  /// entry empty) instead of copied — the zero-copy path for annotation
  /// pool entries that serve exactly one query in their group. Shared
  /// (non-movable) entries are copied exactly as the pointer overload
  /// does.
  template <TwoMonoid M>
  typename M::value_type ReplayPlan(
      const EliminationPlan& plan, const M& monoid,
      const ConjunctiveQuery& query,
      const std::vector<ReplaySource<typename M::value_type>>& bases) {
    using K = typename M::value_type;
    HIERARQ_CHECK_EQ(bases.size(), plan.num_base_atoms());
    std::vector<AnnotatedRelation<K>>& relations = ScratchForPlan<K>(plan);
    for (size_t i = 0; i < plan.num_base_atoms(); ++i) {
      HIERARQ_CHECK(bases[i].shared != nullptr);
      if (bases[i].movable != nullptr) {
        relations[i].AdoptFrom(std::move(*bases[i].movable),
                               query.atoms()[i].vars());
      } else {
        relations[i].AssignFrom(*bases[i].shared, query.atoms()[i].vars());
      }
    }
    ++stats_.evaluations;
    return Run(plan, monoid, relations);
  }

  /// Convenience overload resolving the base relations from `pool` by
  /// atom signature. Precondition: `pool` covers all of `query`'s atoms
  /// (CHECKed).
  template <TwoMonoid M>
  typename M::value_type ReplayPlan(
      const EliminationPlan& plan, const M& monoid,
      const ConjunctiveQuery& query,
      const AnnotationPool<typename M::value_type>& pool) {
    return ReplayPlan(plan, monoid, query, ResolveBases(query, pool));
  }

  const Stats& stats() const { return stats_; }

  /// The storage backend this evaluator's scratch relations use. Replays
  /// (`ReplayPlan`) adopt the annotation pool's backend instead — the pool
  /// owner picks the layout once for the whole batch.
  StorageKind storage() const { return storage_; }

  /// Number of distinct queries with a cached plan (always 0 when plans
  /// are delegated to a shared provider).
  size_t num_cached_plans() const { return plans_.size(); }

  /// Drops all locally cached plans and scratch buffers. A shared plan
  /// provider, if any, is not touched.
  void ClearCache();

 private:
  /// The single exit of Evaluate and every ReplayPlan overload: the one
  /// step loop (core/algorithm1.h). Also the single observability point —
  /// one global counter bump and, when a tracer is installed, one
  /// enclosing span around the step events the loop emits.
  template <TwoMonoid M>
  typename M::value_type Run(
      const EliminationPlan& plan, const M& monoid,
      std::vector<AnnotatedRelation<typename M::value_type>>& relations) {
    static obs::Counter* const evaluations =
        obs::MetricsRegistry::Global().GetCounter("evaluator.evaluations");
    evaluations->Add();
    obs::Span span("evaluate", "evaluator");
    // Per-evaluation accounting (obs/query_stats.h): this is the single
    // exit of every evaluation, so the one clock edge here is the
    // request's exec_ns. Reads the clock only when a collector is
    // installed.
    obs::QueryStats* const query_stats = obs::CurrentQueryStats();
    const uint64_t start_ns =
        query_stats != nullptr ? obs::Tracer::NowNs() : 0;
    typename M::value_type value =
        RunAlgorithm1InPlace(plan, monoid, relations);
    if (query_stats != nullptr) {
      query_stats->exec_ns += obs::Tracer::NowNs() - start_ns;
    }
    return value;
  }

  struct ScratchBase {
    virtual ~ScratchBase() = default;
  };
  template <typename K>
  struct Scratch : ScratchBase {
    std::vector<AnnotatedRelation<K>> relations;
  };

  /// The reusable relations vector for annotation type K. One live scratch
  /// per K: evaluating in a new monoid domain does not invalidate others.
  template <typename K>
  std::vector<AnnotatedRelation<K>>& ScratchFor() {
    std::unique_ptr<ScratchBase>& slot = scratch_[std::type_index(typeid(K))];
    if (slot == nullptr) {
      slot = std::make_unique<Scratch<K>>();
    }
    return static_cast<Scratch<K>*>(slot.get())->relations;
  }

  /// Scratch sized for `plan`, shrinking or growing while keeping the
  /// common prefix: consecutive queries with different atom counts reuse
  /// the prefix tables' slot arrays instead of reallocating every table
  /// (the old `assign` dropped them all on any size change). Stale entries
  /// in kept tables are harmless — every base slot is Reset by the caller
  /// and every intermediate slot is Reset by its step before use.
  template <typename K>
  std::vector<AnnotatedRelation<K>>& ScratchForPlan(
      const EliminationPlan& plan) {
    std::vector<AnnotatedRelation<K>>& relations = ScratchFor<K>();
    if (relations.size() != plan.num_atoms()) {
      relations.resize(plan.num_atoms());
    }
    return relations;
  }

  PlanProvider* shared_plans_ = nullptr;  // Non-owning; nullptr = private.
  StorageKind storage_ = kDefaultStorageKind;
  // unique_ptr values keep plan addresses stable across cache rehashes.
  std::unordered_map<std::string, std::unique_ptr<EliminationPlan>> plans_;
  std::unordered_map<std::type_index, std::unique_ptr<ScratchBase>> scratch_;
  Stats stats_;
};

}  // namespace hierarq

#endif  // HIERARQ_CORE_EVALUATOR_H_
