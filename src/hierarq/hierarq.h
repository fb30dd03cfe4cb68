#ifndef HIERARQ_HIERARQ_H_
#define HIERARQ_HIERARQ_H_

/// \file hierarq.h
/// \brief Umbrella header: the full hierarq public API.
///
/// hierarq implements the unifying 2-monoid algorithm for hierarchical
/// self-join-free Boolean conjunctive queries of Abo Khamis, Comer,
/// Kolaitis, Roy and Tannen (PODS 2025), together with its three problem
/// instantiations (probabilistic query evaluation, Shapley values, bag-set
/// maximization), a fourth one (resilience), the universal provenance
/// monoid, the Theorem 4.4 hardness reduction, and the data/query
/// substrates they depend on.

#include "hierarq/algebra/bagmax_monoid.h"
#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/provenance.h"
#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/algebra/satcount_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/core/bagset.h"
#include "hierarq/core/cancel.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/core/expectation.h"
#include "hierarq/core/pqe.h"
#include "hierarq/core/provenance_pipeline.h"
#include "hierarq/core/resilience.h"
#include "hierarq/core/shapley.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/columnar.h"
#include "hierarq/data/database.h"
#include "hierarq/data/loader.h"
#include "hierarq/data/storage.h"
#include "hierarq/data/tid_database.h"
#include "hierarq/engine/bruteforce.h"
#include "hierarq/engine/join.h"
#include "hierarq/engine/lineage.h"
#include "hierarq/incremental/delta.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/incremental/incremental_evaluator.h"
#include "hierarq/incremental/incremental_view.h"
#include "hierarq/incremental/monoid_traits.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/async_service.h"
#include "hierarq/net/client.h"
#include "hierarq/net/server.h"
#include "hierarq/net/wire.h"
#include "hierarq/obs/explain.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/trace.h"
#include "hierarq/persist/chunk_store.h"
#include "hierarq/persist/codec.h"
#include "hierarq/persist/fault_io.h"
#include "hierarq/persist/persistor.h"
#include "hierarq/persist/snapshot.h"
#include "hierarq/persist/wal.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/gyo.h"
#include "hierarq/query/hierarchical.h"
#include "hierarq/query/parser.h"
#include "hierarq/query/query.h"
#include "hierarq/reductions/bagset_reduction.h"
#include "hierarq/reductions/bcbs.h"
#include "hierarq/reductions/graph.h"
#include "hierarq/service/batch_solvers.h"
#include "hierarq/service/eval_service.h"
#include "hierarq/service/shared_plan_cache.h"
#include "hierarq/util/bigint.h"
#include "hierarq/util/fraction.h"
#include "hierarq/util/result.h"
#include "hierarq/util/simd.h"
#include "hierarq/util/status.h"
#include "hierarq/util/worker_pool.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

#endif  // HIERARQ_HIERARQ_H_
