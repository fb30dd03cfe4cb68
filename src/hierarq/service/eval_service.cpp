#include "hierarq/service/eval_service.h"

#include <thread>

namespace hierarq {

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace

EvalService::EvalService() : EvalService(Options()) {}

EvalService::EvalService(Options options)
    : storage_(options.storage),
      annotation_cache_max_entries_(options.annotation_cache_max_entries),
      pool_(ResolveWorkers(options.num_workers)) {
  // Resolve every metric handle once; the hot paths then pay one relaxed
  // atomic per bump (obs/metrics.h).
  batches_ = registry_.GetCounter("service.batches");
  groups_ = registry_.GetCounter("service.groups");
  requests_ = registry_.GetCounter("service.requests");
  annotation_scans_ = registry_.GetCounter("service.annotation_scans");
  annotations_shared_ = registry_.GetCounter("service.annotations_shared");
  singleton_moves_ = registry_.GetCounter("service.singleton_moves");
  annotation_cache_hits_ =
      registry_.GetCounter("service.annotation_cache_hits");
  annotation_cache_misses_ =
      registry_.GetCounter("service.annotation_cache_misses");
  annotation_cache_invalidations_ =
      registry_.GetCounter("service.annotation_cache_invalidations");
  annotation_cache_evictions_ =
      registry_.GetCounter("service.annotation_cache_evictions");
  deadline_exceeded_ = registry_.GetCounter("service.deadline_exceeded");
  group_size_hist_ = registry_.GetHistogram("service.group_size");
  queue_depth_gauge_ = registry_.GetGauge("service.queue_depth");

  // Workers idle until the first Submit, so populating their evaluators
  // after the pool starts is safe.
  const size_t n = pool_.num_workers();
  worker_evaluators_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    worker_evaluators_.push_back(
        std::make_unique<Evaluator>(&plan_cache_, options.storage));
  }
}

ServiceStats EvalService::stats() const {
  // A read-through view of `registry_`: every field is the live counter's
  // value, so the struct and `metrics()` can never disagree.
  ServiceStats out;
  out.batches = batches_->Value();
  out.groups = groups_->Value();
  out.requests = requests_->Value();
  out.annotation_scans = annotation_scans_->Value();
  out.annotations_shared = annotations_shared_->Value();
  out.singleton_moves = singleton_moves_->Value();
  out.annotation_cache_hits = annotation_cache_hits_->Value();
  out.annotation_cache_misses = annotation_cache_misses_->Value();
  out.annotation_cache_invalidations =
      annotation_cache_invalidations_->Value();
  out.annotation_cache_evictions = annotation_cache_evictions_->Value();
  const SharedPlanCache::Stats plans = plan_cache_.stats();
  out.plans_built = plans.plans_built;
  out.plan_cache_hits = plans.cache_hits;
  return out;
}

}  // namespace hierarq
