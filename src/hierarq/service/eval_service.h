#ifndef HIERARQ_SERVICE_EVAL_SERVICE_H_
#define HIERARQ_SERVICE_EVAL_SERVICE_H_

/// \file eval_service.h
/// \brief `EvalService` — the concurrent, batching evaluation service.
///
/// The server-shaped front door to Algorithm 1, built directly on the
/// paper's phase split. The query-only phase (plan build) is shared
/// process-wide through a `SharedPlanCache`; the data phase is shared per
/// batch: requests are grouped by (database, monoid), each group's base
/// relations are annotated **once** (`AnnotateForQuerySet` — the base
/// scan dominates evaluation, so k queries over one database stop paying
/// for k scans), and every query's plan then replays against the shared
/// annotations on a fixed `WorkerPool`. Each worker owns an `Evaluator`
/// whose plans delegate to the shared cache and whose scratch
/// `AnnotatedRelation` buffers are private, so replays run lock-free.
///
/// Two cross-batch amortizations sit on top of the per-batch sharing:
///
///   * **Generation-keyed annotation cache.** A group that names its
///     annotator (`BatchRequest::annotator_id`) gets its annotation pool
///     cached under (database identity, generation, annotator id, K) and
///     lazily *extended* by later groups that need new signatures — two
///     batches over the same `VersionedDatabase` snapshot stop paying for
///     the base scan twice. A generation bump (one `DeltaBatch` applied)
///     invalidates exactly the stale entry. Anonymous groups (empty id)
///     keep the per-group pool. The cache is LRU-bounded
///     (`Options.annotation_cache_max_entries`), so long-running services
///     over many databases hold a working set, not a history.
///   * **Zero-copy singleton replay.** Within a group, a pool entry used
///     by exactly one query is *moved* into that worker's scratch
///     (`AnnotatedRelation::AdoptFrom`) instead of copied — the copy is
///     the service's main single-query overhead versus a bare Evaluator.
///     Cached pools are never moved from (they outlive the group).
///
/// Thread model: `EvaluateBatch` / `EvaluateMany` may be called
/// concurrently from any number of client threads (each call blocks until
/// its own results are ready); they must not be called from inside a pool
/// task. Kara, Nikolic, Olteanu & Zhang ("Trade-offs in Static and
/// Dynamic Evaluation of Hierarchical Queries") motivate exactly this
/// preprocess-once/answer-many split at server scale.

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/cancel.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/data/database.h"
#include "hierarq/data/storage.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/query/query.h"
#include "hierarq/service/shared_plan_cache.h"
#include "hierarq/util/worker_pool.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// One (database, annotator) group of queries evaluated together. Every
/// query in the group replays against ONE shared annotation of
/// `database`'s base relations, so the annotator (and the monoid, fixed
/// by the EvaluateBatch call) must be meaningful for the whole group — a
/// group models "the requests that arrived for this database".
template <typename K>
struct BatchRequest {
  const Database* database = nullptr;
  std::function<K(const Fact&)> annotator;
  std::vector<const ConjunctiveQuery*> queries;

  /// Cache identity of `annotator` (std::function is not comparable, so
  /// the caller names it). Non-empty ⇒ the group's annotation pool is
  /// cached under (database identity, generation, annotator_id, K) and
  /// reused by later groups with the same key; empty ⇒ per-group pool,
  /// no caching.
  std::string annotator_id;
  /// The database version the caller is evaluating against — pair it with
  /// `VersionedDatabase::generation()` (a mutated-in-place plain Database
  /// with a stale generation would be served stale cached annotations).
  uint64_t generation = 0;
  /// Stable database identity for the cache key —
  /// `VersionedDatabase::uid()`, never reused across objects. 0 (plain
  /// Databases) falls back to keying on the `database` pointer, which can
  /// alias a *new* database allocated at a freed address; versioned
  /// callers are immune.
  uint64_t database_uid = 0;
  /// Optional deadline/cancellation for this group (core/cancel.h).
  /// Checked between elimination steps of every replay; queries cut off
  /// mid-replay report kDeadlineExceeded individually, already-finished
  /// queries in the same group keep their values. Must outlive the call.
  const CancelToken* cancel = nullptr;
  /// Optional per-query resource accounting (obs/query_stats.h), filled
  /// for the group's FIRST query only — the wire protocol sends
  /// single-query groups, and one collector per group keeps the replay
  /// fan-out free of cross-thread aggregation. Must outlive the call.
  obs::QueryStats* stats = nullptr;
};

/// Per-group results, one per query in request order. Non-hierarchical
/// queries fail individually (kNotHierarchical) without affecting the
/// rest of the group.
template <typename K>
struct BatchResult {
  std::vector<Result<K>> values;
};

/// Aggregated service counters — a *snapshot view* of the service's
/// metrics registry (`EvalService::metrics()` is the one source of
/// truth; this struct exists for call sites that want plain numbers).
/// Monotonic; a snapshot is cheap and may be taken while requests are in
/// flight.
struct ServiceStats {
  size_t batches = 0;             ///< EvaluateBatch/EvaluateMany calls.
  size_t groups = 0;              ///< (database, monoid) groups processed.
  size_t requests = 0;            ///< Individual query evaluations.
  size_t annotation_scans = 0;    ///< Base-relation annotation passes run.
  size_t annotations_shared = 0;  ///< Atom annotations served by a shared pass.
  size_t plans_built = 0;         ///< From the shared plan cache.
  size_t plan_cache_hits = 0;     ///< From the shared plan cache.
  size_t singleton_moves = 0;     ///< Pool entries adopted (not copied).
  size_t annotation_cache_hits = 0;  ///< Groups served by a cached pool.
  size_t annotation_cache_misses = 0;  ///< Named groups that had to scan.
  size_t annotation_cache_invalidations = 0;  ///< Stale pools replaced.
  size_t annotation_cache_evictions = 0;  ///< Pools LRU-evicted at capacity.
};

class EvalService {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    size_t num_workers = 0;
    /// Storage backend for the shared annotation pools and every worker's
    /// scratch relations (data/storage.h).
    StorageKind storage = kDefaultStorageKind;
    /// Upper bound on cached annotation pools (the generation-keyed
    /// cache); the least-recently-used entry is evicted past it, so
    /// long-running services over many databases stop growing without a
    /// manual ClearAnnotationCache. 0 means unbounded. In-flight groups
    /// pin their pool via shared_ptr, so eviction never invalidates a
    /// running batch.
    size_t annotation_cache_max_entries = 64;
  };

  /// Default configuration: one worker per hardware thread.
  EvalService();
  explicit EvalService(Options options);

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  size_t num_workers() const { return pool_.num_workers(); }
  StorageKind storage() const { return storage_; }
  SharedPlanCache& plan_cache() { return plan_cache_; }
  WorkerPool& pool() { return pool_; }

  /// The evaluator owned by worker `worker_index` (shared plans, private
  /// scratch). Only that worker's current task may use it — batch solvers
  /// (service/batch_solvers.h) reach it from inside pool tasks, keyed by
  /// the worker index the task receives.
  Evaluator& worker_evaluator(size_t worker_index) {
    return *worker_evaluators_[worker_index];
  }

  /// Plain-number snapshot of `metrics()` (plus the shared plan cache's
  /// counters) — the compatibility view; both read the same instruments,
  /// so they cannot drift.
  ServiceStats stats() const;

  /// This service's metrics registry: every ServiceStats field plus the
  /// group-size histogram and queue-depth gauge, renderable as text/JSON
  /// (`hierarq_cli batch ... --metrics`). Per-instance so two services in
  /// one process don't blend their numbers; engine-core and worker-pool
  /// metrics stay in MetricsRegistry::Global().
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// Evaluates a batch of request groups in monoid `M`. Groups run in
  /// order; within a group, per-query replays fan out across the workers.
  /// Returns one BatchResult per request, query results in request order.
  template <TwoMonoid M>
  std::vector<BatchResult<typename M::value_type>> EvaluateBatch(
      const M& monoid,
      const std::vector<BatchRequest<typename M::value_type>>& requests) {
    batches_->Add();
    std::vector<BatchResult<typename M::value_type>> out;
    out.reserve(requests.size());
    for (const BatchRequest<typename M::value_type>& request : requests) {
      out.push_back(EvaluateGroup(monoid, request));
    }
    return out;
  }

  /// Single-group convenience: evaluates `queries` over `facts` with a
  /// common annotator, returning one result per query in order.
  template <TwoMonoid M>
  std::vector<Result<typename M::value_type>> EvaluateMany(
      const M& monoid, const std::vector<const ConjunctiveQuery*>& queries,
      const Database& facts,
      const std::function<typename M::value_type(const Fact&)>& annotator,
      const CancelToken* cancel = nullptr,
      obs::QueryStats* stats = nullptr) {
    batches_->Add();
    BatchRequest<typename M::value_type> request;
    request.database = &facts;
    request.annotator = annotator;
    request.queries = queries;
    request.cancel = cancel;
    request.stats = stats;
    return EvaluateGroup(monoid, request).values;
  }

  /// EvaluateMany against a `VersionedDatabase` snapshot with a *named*
  /// annotator: the annotation pool is cached under the database's
  /// (uid, current generation), so repeated calls between updates
  /// annotate nothing, and one applied `DeltaBatch` invalidates exactly
  /// this entry. The cross-batch face of the incremental subsystem.
  /// Caller contract: the database must not have a `DeltaBatch` applied
  /// *while this call runs* — the generation proves a finished scan
  /// fresh, not a scan in flight (see VersionedDatabase's thread model).
  template <TwoMonoid M>
  std::vector<Result<typename M::value_type>> EvaluateMany(
      const M& monoid, const std::vector<const ConjunctiveQuery*>& queries,
      const VersionedDatabase& database,
      const std::function<typename M::value_type(const Fact&)>& annotator,
      std::string annotator_id, const CancelToken* cancel = nullptr,
      obs::QueryStats* stats = nullptr) {
    batches_->Add();
    BatchRequest<typename M::value_type> request;
    request.database = &database.facts();
    request.annotator = annotator;
    request.queries = queries;
    request.annotator_id = std::move(annotator_id);
    request.generation = database.generation();
    request.database_uid = database.uid();
    request.cancel = cancel;
    request.stats = stats;
    return EvaluateGroup(monoid, request).values;
  }

  /// Number of live annotation-cache entries (distinct (database,
  /// annotator, K) keys; each holds one generation).
  size_t annotation_cache_size() const {
    std::lock_guard<std::mutex> lock(annotation_cache_mutex_);
    return annotation_cache_.size();
  }

  /// Drops every cached annotation pool (in-flight groups keep theirs
  /// alive until they finish). Routine growth is already bounded by
  /// `Options.annotation_cache_max_entries` LRU eviction; this is the
  /// drop-everything override (tests, explicit memory pressure).
  void ClearAnnotationCache() {
    std::lock_guard<std::mutex> lock(annotation_cache_mutex_);
    annotation_cache_.clear();
    lru_.clear();
  }

 private:
  template <TwoMonoid M>
  BatchResult<typename M::value_type> EvaluateGroup(
      const M& monoid, const BatchRequest<typename M::value_type>& request) {
    using K = typename M::value_type;
    HIERARQ_CHECK(request.database != nullptr);
    groups_->Add();
    requests_->Add(request.queries.size());
    group_size_hist_->Observe(request.queries.size());
    queue_depth_gauge_->Set(static_cast<int64_t>(pool_.queue_depth()));
    const size_t n = request.queries.size();
    obs::Span group_span("service.group", "service");

    // Query phase: resolve every plan through the shared cache. Failures
    // (non-hierarchical queries) are recorded per slot. The accounting
    // probe runs before resolution — GetPlan below inserts on miss, so a
    // post-hoc probe would always report a hit.
    if (request.stats != nullptr && n > 0) {
      request.stats->plan_cache_hit =
          plan_cache_.Contains(*request.queries.front());
    }
    std::vector<Result<const EliminationPlan*>> plans;
    plans.reserve(n);
    std::vector<size_t> planned;  // Slots whose plan resolved.
    for (size_t i = 0; i < n; ++i) {
      plans.push_back(plan_cache_.GetPlan(*request.queries[i]));
      if (plans.back().ok()) {
        planned.push_back(i);
      }
    }

    // Data phase, annotate once: one pass over the base relations serves
    // every query in the group (the batching win). Named annotators go
    // through the generation-keyed cache; anonymous groups build a local
    // pool whose singleton entries the replays may move from.
    std::vector<const ConjunctiveQuery*> planned_queries;
    planned_queries.reserve(planned.size());
    for (size_t i : planned) {
      planned_queries.push_back(request.queries[i]);
    }
    const auto plus = [&monoid](const K& a, const K& b) {
      return monoid.Plus(a, b);
    };
    std::shared_ptr<AnnotationPool<K>> cached;  // Pins a cached pool.
    AnnotationPool<K> local_pool;
    ReplaySourceSet<K> sources;
    size_t scans = 0;
    size_t shared = 0;
    if (!request.annotator_id.empty()) {
      std::shared_ptr<std::mutex> fill_mutex;
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(annotation_cache_mutex_);
        auto [it, inserted] =
            annotation_cache_.try_emplace(AnnotationCacheKey{
                request.database, request.database_uid,
                std::type_index(typeid(K)), request.annotator_id});
        AnnotationCacheEntry& entry = it->second;
        // LRU maintenance: every touch moves the entry to the front, so
        // the back is always the stalest key.
        if (inserted) {
          lru_.push_front(it->first);
          entry.lru_position = lru_.begin();
        } else {
          lru_.splice(lru_.begin(), lru_, entry.lru_position);
        }
        if (entry.pool == nullptr ||
            entry.generation != request.generation) {
          if (entry.pool != nullptr) {
            annotation_cache_invalidations_->Add();
          }
          entry.generation = request.generation;
          entry.pool = std::make_shared<AnnotationPool<K>>();
          entry.fill_mutex = std::make_shared<std::mutex>();
        } else {
          hit = true;
        }
        cached = std::static_pointer_cast<AnnotationPool<K>>(entry.pool);
        fill_mutex = entry.fill_mutex;
        // Evict past capacity — never the entry just touched (it sits at
        // the LRU front). In-flight groups hold their pool's shared_ptr,
        // so a victim's memory lives until its last reader finishes.
        if (annotation_cache_max_entries_ > 0 &&
            annotation_cache_.size() > annotation_cache_max_entries_) {
          const AnnotationCacheKey victim = lru_.back();
          lru_.pop_back();
          annotation_cache_.erase(victim);
          annotation_cache_evictions_->Add();
        }
      }
      if (hit) {
        annotation_cache_hits_->Add();
      } else {
        annotation_cache_misses_->Add();
      }
      {
        // Extend with missing signatures and resolve under the entry's
        // fill lock (concurrent groups may extend the same pool). Replays
        // run after release: entries are immutable once annotated and
        // unordered_map growth never moves values. Cached entries are
        // never movable — the pool outlives the group.
        std::lock_guard<std::mutex> fill(*fill_mutex);
        const size_t pre_scans = cached->scans;
        const size_t pre_reused = cached->reused;
        AnnotateForQuerySetInto<K>(planned_queries, *request.database,
                                   request.annotator, plus, storage_,
                                   cached.get());
        scans = cached->scans - pre_scans;
        shared = cached->reused - pre_reused;
        sources = ResolveReplaySources<K>(planned_queries, cached.get(),
                                          /*allow_moves=*/false);
      }
    } else {
      AnnotateForQuerySetInto<K>(planned_queries, *request.database,
                                 request.annotator, plus, storage_,
                                 &local_pool);
      scans = local_pool.scans;
      shared = local_pool.reused;
      sources = ResolveReplaySources<K>(planned_queries, &local_pool,
                                        /*allow_moves=*/true);
      singleton_moves_->Add(sources.movable);
    }
    annotation_scans_->Add(scans);
    annotations_shared_->Add(shared);

    // Replay phase: per-query replays fan out across the workers. Shared
    // pool entries are read-only from here on; each worker copies them
    // into its own scratch (or adopts its exclusive singletons), so
    // replays never contend.
    std::vector<std::optional<K>> values(n);
    pool_.ParallelFor(planned.size(), [&](size_t worker, size_t j) {
      const size_t slot = planned[j];
      // CancelledError must never escape a pool task (worker_pool.h:
      // tasks must not throw); it is absorbed here and surfaced as a
      // per-slot status at assembly.
      try {
        ScopedCancel watch(request.cancel);
        obs::ScopedQueryStats accounting(slot == 0 ? request.stats : nullptr);
        values[slot] = worker_evaluator(worker).ReplayPlan(
            **plans[slot], monoid, *request.queries[slot],
            sources.per_query[j]);
      } catch (const CancelledError&) {
      }
    });

    BatchResult<K> out;
    out.values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!plans[i].ok()) {
        out.values.push_back(plans[i].status());
      } else if (values[i].has_value()) {
        out.values.push_back(std::move(*values[i]));
      } else {
        deadline_exceeded_->Add();
        out.values.push_back(request.cancel != nullptr &&
                                     request.cancel->cancelled()
                                 ? Status::DeadlineExceeded(
                                       "evaluation cancelled by caller")
                                 : Status::DeadlineExceeded(
                                       "deadline expired mid-replay; "
                                       "database untouched"));
      }
    }
    return out;
  }

  /// One cached annotation pool per (database identity, K, annotator id);
  /// `generation` stamps the snapshot it was built from. The pool is held
  /// by shared_ptr so invalidation can replace the entry while in-flight
  /// groups finish against the old pool; `fill_mutex` serializes lazy
  /// extension (and source resolution) per entry, type-erased behind
  /// shared_ptr<void> because the service is monoid-generic.
  struct AnnotationCacheKey {
    const Database* database;
    /// VersionedDatabase::uid(), or 0 for plain (pointer-keyed) requests
    /// — a nonzero uid is never reused, so entries cannot alias a new
    /// database allocated at a freed address.
    uint64_t database_uid;
    std::type_index value_type;
    std::string annotator_id;
    bool operator==(const AnnotationCacheKey&) const = default;
  };
  struct AnnotationCacheKeyHash {
    size_t operator()(const AnnotationCacheKey& key) const {
      size_t h = std::hash<const Database*>{}(key.database);
      h = h * 1099511628211ULL ^ static_cast<size_t>(key.database_uid);
      h = h * 1099511628211ULL ^ key.value_type.hash_code();
      return h * 1099511628211ULL ^ std::hash<std::string>{}(key.annotator_id);
    }
  };
  struct AnnotationCacheEntry {
    uint64_t generation = 0;
    std::shared_ptr<void> pool;  // shared_ptr<AnnotationPool<K>>.
    std::shared_ptr<std::mutex> fill_mutex;
    /// This entry's node in `lru_` (front = most recently touched).
    std::list<AnnotationCacheKey>::iterator lru_position;
  };

  SharedPlanCache plan_cache_;
  StorageKind storage_ = kDefaultStorageKind;
  std::vector<std::unique_ptr<Evaluator>> worker_evaluators_;
  size_t annotation_cache_max_entries_ = 0;
  mutable std::mutex annotation_cache_mutex_;
  std::unordered_map<AnnotationCacheKey, AnnotationCacheEntry,
                     AnnotationCacheKeyHash>
      annotation_cache_;
  /// Recency order of `annotation_cache_` keys, most recent first; guarded
  /// by `annotation_cache_mutex_`.
  std::list<AnnotationCacheKey> lru_;
  /// The one source of truth for service counters; `ServiceStats` is a
  /// read-through view. Handles below are resolved once in the
  /// constructor (registry pointers are stable for its lifetime).
  obs::MetricsRegistry registry_;
  obs::Counter* batches_ = nullptr;
  obs::Counter* groups_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* annotation_scans_ = nullptr;
  obs::Counter* annotations_shared_ = nullptr;
  obs::Counter* singleton_moves_ = nullptr;
  obs::Counter* annotation_cache_hits_ = nullptr;
  obs::Counter* annotation_cache_misses_ = nullptr;
  obs::Counter* annotation_cache_invalidations_ = nullptr;
  obs::Counter* annotation_cache_evictions_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;  ///< Queries cut off mid-replay.
  obs::Histogram* group_size_hist_ = nullptr;  ///< Queries per group.
  obs::Gauge* queue_depth_gauge_ = nullptr;  ///< Pool queue at group entry.
  // Declared last: the pool joins (draining in-flight tasks) before any
  // member a task could touch is destroyed.
  WorkerPool pool_;
};

}  // namespace hierarq

#endif  // HIERARQ_SERVICE_EVAL_SERVICE_H_
