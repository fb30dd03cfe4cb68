#include "hierarq/core/adaptive.h"

#include <algorithm>
#include <thread>

namespace hierarq {
namespace {

// EWMA weight for measured step costs: heavy enough that one replay of a
// plan overrides a mis-calibrated constant, light enough that a single
// noisy timing (page faults, a scheduler hiccup) cannot flip a decision
// permanently.
constexpr double kFeedbackAlpha = 0.4;

// Below this many rows a timing sample is mostly fixed overhead and
// clock granularity; folding it into a per-row estimate would poison the
// EWMA with huge ns/row values.
constexpr size_t kMinFeedbackRows = 64;

}  // namespace

double CostModel::SerialStepNs(size_t rows) const {
  return static_cast<double>(rows) * SerialNsPerRow();
}

double CostModel::ParallelStepNs(double effective_threads,
                                 size_t rows) const {
  const double eff = std::max(1.0, effective_threads);
  return ParallelStepOverheadNs() +
         static_cast<double>(rows) * ParallelNsPerRow() / eff;
}

AdaptiveController::AdaptiveController() : AdaptiveController(Options{}) {}

AdaptiveController::AdaptiveController(const Options& options)
    : hardware_threads_(options.hardware_threads),
      max_threads_(std::max<size_t>(1, options.max_threads)),
      min_parallel_rows_(options.min_parallel_rows) {
  if (hardware_threads_ == 0) {
    hardware_threads_ = std::thread::hardware_concurrency();
    if (hardware_threads_ == 0) {
      hardware_threads_ = 1;  // hardware_concurrency() may be unknowable.
    }
  }
}

StepChoice AdaptiveController::Choose(const EliminationPlan* plan,
                                      size_t step_index,
                                      const RelationStats& input) const {
  StepChoice choice;

  // Per-step measured feedback, when this plan step has run before. The
  // recorded values are *wall-clock* ns/row — the parallel channel
  // already folds in the fan-out and the latch overhead, so it is used
  // as-is rather than re-divided by the thread estimate.
  double measured_serial = -1.0;
  double measured_parallel = -1.0;
  if (plan != nullptr) {
    auto it = feedback_.find(plan);
    if (it != feedback_.end() && step_index < it->second.size()) {
      measured_serial = it->second[step_index].serial_ns_per_row;
      measured_parallel = it->second[step_index].parallel_ns_per_row;
    }
  }

  choice.predicted_serial_ns =
      measured_serial > 0.0
          ? static_cast<double>(input.rows) * measured_serial
          : model_.SerialStepNs(input.rows);

  const size_t budget =
      std::min({hardware_threads_, max_threads_,
                ShardedColumnarStore<char>::kNumShards});
  if (budget <= 1 || input.rows < min_parallel_rows_) {
    // No fan-out available, or the step is too small to amortize even a
    // single fused latch — the parallel estimate is moot.
    choice.predicted_parallel_ns = model_.ParallelStepNs(1.0, input.rows);
    return choice;
  }

  // Skew caps effective parallelism: the scatter phase ends when the
  // fullest shard's owner finishes, so at most kNumShards / skew shards'
  // worth of work proceeds concurrently.
  const double skew = std::max(1.0, input.skew);
  const double effective = std::min(
      static_cast<double>(budget),
      static_cast<double>(ShardedColumnarStore<char>::kNumShards) / skew);
  choice.predicted_parallel_ns =
      measured_parallel > 0.0
          ? static_cast<double>(input.rows) * measured_parallel
          : model_.ParallelStepNs(effective, input.rows);

  if (choice.predicted_parallel_ns < choice.predicted_serial_ns) {
    choice.parallel = true;
    choice.threads = budget;
  }
  return choice;
}

void AdaptiveController::RecordMeasured(const EliminationPlan* plan,
                                        size_t step_index, bool parallel,
                                        size_t rows, double seconds) {
  if (parallel) {
    ++parallel_steps_;
  } else {
    ++serial_steps_;
  }
  if (plan == nullptr || rows < kMinFeedbackRows || seconds <= 0.0) {
    return;
  }
  std::vector<StepFeedback>& steps = feedback_[plan];
  if (steps.size() <= step_index) {
    steps.resize(step_index + 1);
  }
  const double ns_per_row = seconds * 1e9 / static_cast<double>(rows);
  StepFeedback& fb = steps[step_index];
  double& channel =
      parallel ? fb.parallel_ns_per_row : fb.serial_ns_per_row;
  if (channel < 0.0) {
    channel = ns_per_row;
  } else {
    channel = kFeedbackAlpha * ns_per_row + (1.0 - kFeedbackAlpha) * channel;
  }
}

double AdaptiveController::MeasuredNsPerRow(const EliminationPlan* plan,
                                            size_t step_index,
                                            bool parallel) const {
  auto it = feedback_.find(plan);
  if (it == feedback_.end() || step_index >= it->second.size()) {
    return -1.0;
  }
  const StepFeedback& fb = it->second[step_index];
  return parallel ? fb.parallel_ns_per_row : fb.serial_ns_per_row;
}

}  // namespace hierarq
