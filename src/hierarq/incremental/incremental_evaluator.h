#ifndef HIERARQ_INCREMENTAL_INCREMENTAL_EVALUATOR_H_
#define HIERARQ_INCREMENTAL_INCREMENTAL_EVALUATOR_H_

/// \file incremental_evaluator.h
/// \brief `IncrementalEvaluator` — the fact-update front door: attach
/// Algorithm 1 views to a `VersionedDatabase`, stream `DeltaBatch`es,
/// read maintained results.
///
/// The batch stack (Evaluator, EvalService) answers "evaluate Q over D";
/// this class answers "keep Q(D) current while D changes". A view is
/// attached once (plan build + full materialization, the same O(|D|) cost
/// as one batch evaluation) and thereafter every `ApplyDelta`:
///
///   1. applies the batch to the shared `VersionedDatabase` (one
///      generation step — the annotation cache key in `EvalService`
///      invalidates off this);
///   2. propagates the batch through every attached view
///      (incremental/incremental_view.h);
///   3. returns the fresh result of every live view.
///
/// Single-threaded by design, like `Evaluator`: one stream of updates
/// mutates one database and its views in program order. Concurrency
/// belongs a layer up (e.g. one IncrementalEvaluator behind a queue).

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/data/storage.h"
#include "hierarq/incremental/delta.h"
#include "hierarq/incremental/incremental_view.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"
#include "hierarq/util/logging.h"
#include "hierarq/util/result.h"

namespace hierarq {

template <TwoMonoid M>
class IncrementalEvaluator {
 public:
  using K = typename M::value_type;
  using Annotator = typename IncrementalView<M>::Annotator;
  /// Stable view identifier (dense; survives other views detaching).
  using ViewHandle = size_t;

  struct Options {
    /// Storage backend of every materialized view relation.
    StorageKind storage = kDefaultStorageKind;
  };

  struct Stats {
    size_t attaches = 0;       ///< Views materialized.
    size_t batches = 0;        ///< ApplyDelta calls.
    size_t ops = 0;            ///< Delta ops applied to the database.
    size_t reattach_replays = 0;  ///< Reattaches served from the log.
    size_t reattach_rematerializations = 0;  ///< Fell off the log.
  };

  /// A view released from delta propagation (`Release`), remembering the
  /// generation it was last synced to. The detached-reader protocol
  /// (versioned_database.h `log()`): hand the view back to `Reattach`
  /// and it catches up from the log suffix — or, having fallen off a
  /// truncated log, rematerializes. Recovery uses the same path: build
  /// views against a recovered snapshot, stream the replayed WAL tail.
  struct DetachedView {
    std::unique_ptr<IncrementalView<M>> view;
    uint64_t synced_generation = 0;
  };

  /// The evaluator maintains views over `*database` (non-owning; must
  /// outlive this evaluator) in `monoid`, annotating present facts with
  /// `annotator(fact, weight)`.
  IncrementalEvaluator(M monoid, VersionedDatabase* database,
                       Annotator annotator, Options options = {})
      : monoid_(std::move(monoid)),
        database_(database),
        annotator_(std::move(annotator)),
        options_(options) {
    HIERARQ_CHECK(database_ != nullptr);
  }

  IncrementalEvaluator(const IncrementalEvaluator&) = delete;
  IncrementalEvaluator& operator=(const IncrementalEvaluator&) = delete;

  const VersionedDatabase& database() const { return *database_; }
  uint64_t generation() const { return database_->generation(); }
  const Stats& stats() const { return stats_; }

  /// Builds `query`'s plan (failing with kNotHierarchical exactly as
  /// EliminationPlan::Build does), materializes its full view tree from
  /// the current database state, and returns a handle for reading the
  /// maintained result.
  Result<ViewHandle> Attach(const ConjunctiveQuery& query) {
    HIERARQ_ASSIGN_OR_RETURN(EliminationPlan plan,
                             EliminationPlan::Build(query));
    auto view = std::make_unique<IncrementalView<M>>(
        query, std::move(plan), monoid_, annotator_, options_.storage);
    view->Materialize(*database_);
    ++stats_.attaches;
    views_.push_back(std::move(view));
    return views_.size() - 1;
  }

  /// Drops a view; its handle becomes invalid. Other handles keep their
  /// meaning. Returns false for already-detached or unknown handles.
  bool Detach(ViewHandle handle) {
    if (handle >= views_.size() || views_[handle] == nullptr) {
      return false;
    }
    views_[handle] = nullptr;
    return true;
  }

  /// Detaches a view WITHOUT destroying it: the returned DetachedView
  /// stops seeing deltas but keeps its materialized state and the
  /// generation it is synced to. Dies on invalid handles (Release of a
  /// view you do not hold is a caller bug, unlike the tolerant Detach).
  DetachedView Release(ViewHandle handle) {
    HIERARQ_CHECK_LT(handle, views_.size());
    HIERARQ_CHECK(views_[handle] != nullptr);
    DetachedView detached;
    detached.view = std::move(views_[handle]);
    detached.synced_generation = database_->generation();
    return detached;
  }

  /// Re-adopts a released (or recovered) view, catching it up to the
  /// current database state: when every generation in
  /// (synced_generation, generation()] is still in the log, the gap is
  /// replayed through the view's delta path — no rematerialization, cost
  /// proportional to the missed updates; when the log has been truncated
  /// past the sync point, the view rematerializes from scratch (the
  /// documented fallback, counted separately in stats). Returns a fresh
  /// handle; the old one stays invalid.
  ViewHandle Reattach(DetachedView detached) {
    HIERARQ_CHECK(detached.view != nullptr)
        << "Reattach of an empty DetachedView";
    const uint64_t synced = detached.synced_generation;
    const uint64_t current = database_->generation();
    HIERARQ_CHECK_LE(synced, current)
        << "DetachedView is from this database's future";
    if (synced >= database_->log_start_generation()) {
      const auto& log = database_->log();
      for (uint64_t g = synced; g < current; ++g) {
        detached.view->Apply(
            log[static_cast<size_t>(g - database_->log_start_generation())]);
      }
      ++stats_.reattach_replays;
    } else {
      detached.view->Materialize(*database_);
      ++stats_.reattach_rematerializations;
    }
    views_.push_back(std::move(detached.view));
    return views_.size() - 1;
  }

  /// Number of live (attached) views.
  size_t num_views() const {
    size_t live = 0;
    for (const auto& view : views_) {
      live += view != nullptr ? 1 : 0;
    }
    return live;
  }

  const IncrementalView<M>& view(ViewHandle handle) const {
    HIERARQ_CHECK_LT(handle, views_.size());
    HIERARQ_CHECK(views_[handle] != nullptr);
    return *views_[handle];
  }

  /// The maintained result of one view (current as of the last
  /// Attach/ApplyDelta).
  const K& ResultOf(ViewHandle handle) const { return view(handle).result(); }

  /// Applies `batch` to the database (one generation step) and propagates
  /// it through every live view. Returns the fresh (handle, result) pairs
  /// in handle order.
  std::vector<std::pair<ViewHandle, K>> ApplyDelta(const DeltaBatch& batch) {
    ++stats_.batches;
    stats_.ops += batch.size();
    incremental_internal::BatchesCounter()->Add();
    incremental_internal::OpsCounter()->Add(batch.size());
    obs::Span span("apply_delta", "incremental");
    database_->Apply(batch);
    std::vector<std::pair<ViewHandle, K>> results;
    results.reserve(views_.size());
    for (size_t handle = 0; handle < views_.size(); ++handle) {
      if (views_[handle] != nullptr) {
        results.emplace_back(handle, views_[handle]->Apply(batch));
      }
    }
    return results;
  }

 private:
  M monoid_;
  VersionedDatabase* database_;  // Non-owning.
  Annotator annotator_;
  Options options_;
  // unique_ptr slots: handles are indices, detached views leave holes.
  std::vector<std::unique_ptr<IncrementalView<M>>> views_;
  Stats stats_;
};

}  // namespace hierarq

#endif  // HIERARQ_INCREMENTAL_INCREMENTAL_EVALUATOR_H_
