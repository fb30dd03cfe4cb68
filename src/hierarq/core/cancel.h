#ifndef HIERARQ_CORE_CANCEL_H_
#define HIERARQ_CORE_CANCEL_H_

/// \file cancel.h
/// \brief Cooperative cancellation with deadlines for long evaluations.
///
/// The server front door (net/) promises per-request deadlines, and a
/// deadline is only as good as the engine's willingness to stop: a replay
/// over a 10M-fact database cannot be aborted from outside without
/// leaving scratch state undefined. The contract here is *checkpointed*
/// cancellation — the one Algorithm 1 step loop (`RunEliminationSteps`
/// in core/algorithm1.h) calls
/// `CancellationCheckpoint()` between elimination steps, the one place
/// where all intermediate state is a well-formed relation and nothing is
/// half-built. A triggered checkpoint throws `CancelledError`,
/// which the *installing* layer (net/async_service.h, or
/// `EvalService::EvaluateGroup` for requests carrying a token) catches
/// and converts to `Status` — the exception never crosses a public API
/// boundary, per the codebase-wide rule in util/status.h.
///
/// Mechanics: a `CancelToken` is a deadline (on the `obs::Tracer::NowNs`
/// timeline) plus a manual cancel flag. It is installed per *thread* with
/// `ScopedCancel` — the step loop runs on whichever thread executes the
/// evaluation (a service pool worker for batch fan-out, the caller's
/// thread for a bare `Evaluator`), so the installer wraps exactly the
/// evaluation call. With no token installed a checkpoint is one
/// thread_local load and a branch: the default costs nothing measurable
/// against a step that scans thousands of rows.
///
/// Database safety: queries only read the database and write private
/// scratch, so a cancelled evaluation leaves the database untouched by
/// construction; scratch relations are Reset by every caller before
/// reuse, so a half-filled intermediate from an aborted run can never
/// leak into a later result.

#include <atomic>
#include <cstdint>

#include "hierarq/algebra/bagmax_monoid.h"  // SatAddU64
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"

namespace hierarq {

/// Thrown by `CancellationCheckpoint()`; caught by the layer that
/// installed the token (never escapes across a public API).
struct CancelledError {
  bool deadline_exceeded = false;  ///< Deadline vs explicit Cancel().
};

/// One request's cancellation state. Thread-safe: the connection thread
/// may Cancel() while an evaluation thread polls Expired().
class CancelToken {
 public:
  CancelToken() = default;

  /// Arms the deadline: the token expires once `obs::Tracer::NowNs()`
  /// passes `deadline_ns`. 0 (the default) means no deadline.
  void set_deadline_ns(uint64_t deadline_ns) {
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
  }

  /// Convenience: expire `budget_ns` from now. The sum saturates, so a
  /// budget too large to represent is a deadline that never fires.
  void ExpireAfter(uint64_t budget_ns) {
    set_deadline_ns(SatAddU64(obs::Tracer::NowNs(), budget_ns));
  }

  /// Manual cancellation (client disconnected, server shutting down).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  uint64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  /// True once cancelled or past the deadline. The deadline comparison
  /// reads the clock, so callers poll this at checkpoints, not per row.
  bool Expired() const {
    if (cancelled()) {
      return true;
    }
    const uint64_t deadline = deadline_ns();
    return deadline != 0 && obs::Tracer::NowNs() > deadline;
  }

 private:
  std::atomic<uint64_t> deadline_ns_{0};
  std::atomic<bool> cancelled_{false};
};

namespace cancel_internal {

/// The token watching this thread's current evaluation, if any.
inline thread_local const CancelToken* g_current = nullptr;

}  // namespace cancel_internal

/// Installs `token` as this thread's checkpoint target for the enclosing
/// scope (restoring the previous one on exit, so nested evaluations —
/// e.g. a traced request inside a bench harness — compose).
class ScopedCancel {
 public:
  explicit ScopedCancel(const CancelToken* token)
      : previous_(cancel_internal::g_current) {
    cancel_internal::g_current = token;
  }
  ~ScopedCancel() { cancel_internal::g_current = previous_; }

  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  const CancelToken* const previous_;
};

/// The engine-side gate, called between elimination steps by every
/// Algorithm 1 runner. No token installed (the overwhelmingly common
/// case): one thread_local load (plus one for the stats collector, only
/// hit between steps). Installed and expired: throws `CancelledError`
/// for the installing layer to catch. A collected evaluation counts
/// every poll — checkpoints-hit is part of `obs::QueryStats`.
inline void CancellationCheckpoint() {
  if (obs::QueryStats* const stats = obs::CurrentQueryStats()) {
    ++stats->cancel_checkpoints;
  }
  const CancelToken* const token = cancel_internal::g_current;
  if (token != nullptr && token->Expired()) {
    throw CancelledError{!token->cancelled()};
  }
}

}  // namespace hierarq

#endif  // HIERARQ_CORE_CANCEL_H_
